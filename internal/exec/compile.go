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
	case "Nested_loops", "Hash_join", "Merge_join":
		return buildJoin(c, node)
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

// Compile builds the iterator tree for a plan and marks scratch every
// arena whose rows cannot reach the root's consumer.
func (c *Compiler) Compile(plan *core.Expr) (Iterator, error) {
	it, err := c.compile(plan)
	if err != nil {
		return nil, err
	}
	eachMem(it, true, markScratch)
	return compiled{it, c.DB.Pool()}, nil
}

// runMem points at what one operator holds of the free pools for a run:
// its arena, the views it drains an input into, a hash join's chains;
// nil where it has none.
type runMem struct {
	arena *arena
	views *[]data.Tuple
	index *data.HashIndex
}

// eachMem calls f on the memory of every operator in the tree under it
// that builds rows or drains an input, with whether rows built there
// reach the consumer of it. They do through operators that pass rows on
// as they are — Filter, Null, Merge_sort (it permutes views), the
// ExecStats shims — down to the first operator that builds rows; that
// one copies its inputs' cells, so below it nothing reaches. Scans hand
// out the table's own rows.
func eachMem(it Iterator, reaches bool, f func(m runMem, reaches bool)) {
	switch x := it.(type) {
	case *statsIter:
		eachMem(x.in, reaches, f)
	case *filterIter:
		eachMem(x.in, reaches, f)
	case *nullIter:
		eachMem(x.in, reaches, f)
	case *sortIter:
		f(runMem{views: &x.rows}, reaches)
		eachMem(x.in, reaches, f)
	case *projectIter:
		f(runMem{arena: &x.mem}, reaches)
		eachMem(x.in, false, f)
	case *unnestIter:
		f(runMem{arena: &x.mem}, reaches)
		eachMem(x.in, false, f)
	case *matIter:
		f(runMem{arena: &x.mem}, reaches)
		eachMem(x.in, false, f)
	case *nlJoinIter:
		f(runMem{arena: &x.st.mem, views: &x.inner}, reaches)
		eachMem(x.l, false, f)
		eachMem(x.r, false, f)
	case *hashJoinIter:
		f(runMem{&x.st.mem, &x.build, &x.index}, reaches)
		eachMem(x.l, false, f)
		eachMem(x.r, false, f)
	case *mergeJoinIter:
		f(runMem{arena: &x.st.mem}, reaches)
		eachMem(x.l, false, f)
		eachMem(x.r, false, f)
	}
}

func markScratch(m runMem, reaches bool) {
	if m.arena != nil {
		m.arena.scratch = !reaches
	}
}

// releaseMem runs once Run's final Close has returned: a hash join's
// build rows, say, live in its right input's arena until then, past that
// input's own Close. Views and chains go back whether or not rows reach:
// no Result aliases them (Run copies the views it keeps).
func releaseMem(m runMem, _ bool) {
	m.arena.release()
	if m.views != nil {
		clear(*m.views)
		views.give(*m.views)
		*m.views = nil
	}
	if m.index != nil {
		chains.give(m.index.Chains())
		*m.index = data.HashIndex{}
	}
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
	// shim.
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

// buildJoin compiles both inputs and builds the join algorithm the node
// names.
func buildJoin(c *Compiler, node *core.Expr) (Iterator, error) {
	l, err := c.compile(node.Kids[0])
	if err != nil {
		return nil, err
	}
	r, err := c.compile(node.Kids[1])
	if err != nil {
		return nil, err
	}
	pool, pred := c.DB.Pool(), c.pred(node.D, c.P.JP)
	switch node.Op.Name {
	case "Nested_loops":
		return &nlJoinIter{l: l, r: r, pool: pool, pred: pred}, nil
	case "Hash_join":
		return &hashJoinIter{l: l, r: r, pool: pool, pred: pred}, nil
	}
	return &mergeJoinIter{l: l, r: r, pool: pool, pred: pred}, nil
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
