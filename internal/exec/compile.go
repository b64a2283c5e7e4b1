package exec

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
)

// Props maps the optimizer's descriptor properties the executor needs.
// Absent properties are core.NoProp.
type Props struct {
	Ord core.PropID // tuple_order
	JP  core.PropID // join_predicate
	SP  core.PropID // selection_predicate
	PA  core.PropID // projected_attributes
	MA  core.PropID // mat_attribute (pointer attribute for MAT)
	UA  core.PropID // unnest_attribute
}

// Compiler turns access plans (core operator trees whose interior nodes
// are algorithms) into iterator trees over a database.
type Compiler struct {
	DB *data.DB
	P  Props
	// Stats, when set before Compile, makes Compile wrap every operator
	// in a per-operator runtime-stats collector (rows, Open/Next time)
	// for the flight recorder. nil — the default — compiles the bare
	// iterator tree.
	Stats *ExecStats
	// curParent threads operator identity to child Compile frames when
	// Stats is attached: the in-construction operator's stats id plus
	// one (0 = compiling the root).
	curParent int
}

// NewCompiler returns a compiler for plans over db.
func NewCompiler(db *data.DB, p Props) *Compiler {
	return &Compiler{DB: db, P: p}
}

// build constructs the iterator for one plan node by its algorithm,
// compiling the node's inputs through c.
func (c *Compiler) build(node *core.Expr) (Iterator, error) {
	switch node.Op.Name {
	case "File_scan":
		return buildFileScan(c, node)
	case "Index_scan":
		return buildIndexScan(c, node)
	case "Filter":
		return buildFilter(c, node)
	case "Project":
		return buildProject(c, node)
	case "Nested_loops":
		return buildNestedLoops(c, node)
	case "Hash_join":
		return buildHashJoin(c, node)
	case "Merge_join":
		return buildMergeJoin(c, node)
	case "Pointer_join", "Materialize":
		// Pointer_join is the batched pointer-dereference MAT
		// algorithm: same semantics as Materialize, different cost
		// model.
		return buildMaterialize(c, node)
	case "Merge_sort":
		return buildMergeSort(c, node)
	case "Flatten":
		return buildFlatten(c, node)
	case core.NullName:
		return buildNull(c, node)
	}
	return nil, fmt.Errorf("exec: no builder for algorithm %s", node.Op.Name)
}

// compiled is a plan's root operator together with the pool that
// renders its rows, which Run hands on to the Result.
type compiled struct {
	Iterator
	pool *data.Pool
}

// Compile builds the iterator tree for a plan.
func (c *Compiler) Compile(plan *core.Expr) (Iterator, error) {
	it, err := c.compile(plan)
	if err != nil {
		return nil, err
	}
	return compiled{it, c.DB.Pool()}, nil
}

// compile builds one operator and, through its builder, its inputs.
func (c *Compiler) compile(plan *core.Expr) (Iterator, error) {
	if plan.IsLeaf() {
		return nil, fmt.Errorf("exec: bare stored file %q; plans access files through scan algorithms", plan.File)
	}
	if c.Stats == nil {
		return c.build(plan)
	}
	// Stats collection: register this operator before building its
	// inputs (so parents precede children in the report), build the
	// subtree with curParent pointing here, then interpose the counting
	// shim. The shim forwards RowHint, so pre-sizing is unaffected.
	si := c.Stats.register(plan.Op.Name, c.curParent)
	saved := c.curParent
	c.curParent = si.id + 1
	it, err := c.build(plan)
	c.curParent = saved
	if err != nil {
		return nil, err
	}
	si.in = it
	return si, nil
}

// table resolves a plan leaf to its stored table.
func (c *Compiler) table(leaf *core.Expr) (*data.Table, error) {
	if !leaf.IsLeaf() {
		return nil, fmt.Errorf("exec: scan input must be a stored file, got %s", leaf)
	}
	t, ok := c.DB.Table(leaf.File)
	if !ok {
		return nil, fmt.Errorf("exec: unknown stored file %q", leaf.File)
	}
	return t, nil
}

func (c *Compiler) pred(d *core.Descriptor, id core.PropID) *core.Pred {
	if id == core.NoProp {
		return core.TruePred
	}
	return d.Pred(id)
}

func buildFileScan(c *Compiler, node *core.Expr) (Iterator, error) {
	tab, err := c.table(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &scanIter{tab: tab, pool: c.DB.Pool(), sel: c.pred(node.D, c.P.SP)}, nil
}

func buildIndexScan(c *Compiler, node *core.Expr) (Iterator, error) {
	tab, err := c.table(node.Kids[0])
	if err != nil {
		return nil, err
	}
	ix := core.Attr{}
	if c.P.Ord != core.NoProp {
		if ord := node.D.Order(c.P.Ord); !ord.IsDontCare() && len(ord.By) > 0 {
			ix = ord.By[0]
		}
	}
	if ix == (core.Attr{}) {
		return nil, fmt.Errorf("exec: index scan without an index order on %s", tab.Class.Name)
	}
	return &scanIter{tab: tab, pool: c.DB.Pool(), sel: c.pred(node.D, c.P.SP), byIndex: ix}, nil
}

func buildFilter(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &filterIter{in: in, pool: c.DB.Pool(), pred: c.pred(node.D, c.P.SP)}, nil
}

func buildProject(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.PA == core.NoProp {
		return nil, fmt.Errorf("exec: no projected_attributes property configured")
	}
	return &projectIter{in: in, attrs: node.D.AttrList(c.P.PA)}, nil
}

func (c *Compiler) joinInputs(node *core.Expr) (l, r Iterator, pred *core.Pred, err error) {
	if l, err = c.compile(node.Kids[0]); err != nil {
		return
	}
	if r, err = c.compile(node.Kids[1]); err != nil {
		return
	}
	pred = c.pred(node.D, c.P.JP)
	return
}

func buildNestedLoops(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &nlJoinIter{l: l, r: r, pool: c.DB.Pool(), pred: pred}, nil
}

func buildHashJoin(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{l: l, r: r, pool: c.DB.Pool(), pred: pred}, nil
}

func buildMergeJoin(c *Compiler, node *core.Expr) (Iterator, error) {
	l, r, pred, err := c.joinInputs(node)
	if err != nil {
		return nil, err
	}
	return &mergeJoinIter{l: l, r: r, pool: c.DB.Pool(), pred: pred}, nil
}

func buildMergeSort(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.Ord == core.NoProp {
		return nil, fmt.Errorf("exec: no tuple_order property configured")
	}
	ord := node.D.Order(c.P.Ord)
	if ord.IsDontCare() {
		return nil, fmt.Errorf("exec: merge sort without a concrete order")
	}
	return &sortIter{in: in, pool: c.DB.Pool(), by: ord.By}, nil
}

func buildMaterialize(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.MA == core.NoProp {
		return nil, fmt.Errorf("exec: no mat_attribute property configured")
	}
	refs := node.D.AttrList(c.P.MA)
	if len(refs) != 1 {
		return nil, fmt.Errorf("exec: materialize needs exactly one pointer attribute, got %v", refs)
	}
	return &matIter{c: c, in: in, ref: refs[0]}, nil
}

func buildFlatten(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	if c.P.UA == core.NoProp {
		return nil, fmt.Errorf("exec: no unnest_attribute property configured")
	}
	attrs := node.D.AttrList(c.P.UA)
	if len(attrs) != 1 {
		return nil, fmt.Errorf("exec: flatten needs exactly one set attribute, got %v", attrs)
	}
	return &unnestIter{in: in, pool: c.DB.Pool(), attr: attrs[0]}, nil
}

func buildNull(c *Compiler, node *core.Expr) (Iterator, error) {
	in, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	return &nullIter{in: in}, nil
}

// matIter implements MAT's pointer chase: for each input tuple, the
// referenced object (the target-class row whose id equals the pointer
// value) is appended to the tuple.
type matIter struct {
	c   *Compiler
	in  Iterator
	ref core.Attr

	target *data.Table
	refCol int
	out    data.Schema
	mem    arena
}

func (m *matIter) Schema() data.Schema { return m.out }

// RowHint passes through the input's bound: a pointer chase appends
// columns and only drops rows (dangling pointers).
func (m *matIter) RowHint() (int, bool) { return rowHint(m.in) }

func (m *matIter) Open() error {
	if err := m.in.Open(); err != nil {
		return err
	}
	col, ok := m.in.Schema().Col(m.ref)
	if !ok {
		return fmt.Errorf("exec: pointer attribute %v not in input", m.ref)
	}
	m.refCol = col
	// Resolve the target class from the catalog metadata on the table.
	srcTab, ok := m.c.DB.Table(m.ref.Rel())
	if !ok {
		return fmt.Errorf("exec: unknown source class %q for pointer %v", m.ref.Rel(), m.ref)
	}
	attr, ok := srcTab.Class.Attr(m.ref.Name())
	if !ok || attr.Ref == "" {
		return fmt.Errorf("exec: %v is not a pointer attribute", m.ref)
	}
	m.target, ok = m.c.DB.Table(attr.Ref)
	if !ok {
		return fmt.Errorf("exec: unknown target class %q", attr.Ref)
	}
	if _, ok := m.target.Col("id"); !ok {
		return fmt.Errorf("exec: target class %s has no id attribute", m.target.Class.Name)
	}
	m.out = m.in.Schema().Concat(m.target.Schema)
	return nil
}

func (m *matIter) Next() (data.Tuple, bool, error) {
	for {
		t, ok, err := m.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if row, ok := m.target.RowByID(t[m.refCol]); ok {
			return m.mem.concat(t, m.target.Rows[row]), true, nil
		}
		// Dangling pointer: drop the tuple (inner-join semantics).
	}
}

func (m *matIter) Close() error { return m.in.Close() }
