package server

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/volcano"
)

// A World is one prepared rule set the service optimizes against: the
// compiled rules, a query builder that turns a wire QuerySpec into an
// initialized operator tree plus requirement, and — for worlds backed by
// a populated catalog — the execution-property mapping the differential
// harness uses to actually run returned plans.
type World struct {
	Name string
	RS   *volcano.RuleSet
	// Build turns a wire QuerySpec into a fresh (tree, requirement). The
	// tree is fully prepared (PrepareQuery applied for Prairie-generated
	// rule sets), ready for the optimizer; the server builds each query
	// shape once per cache epoch (prepared).
	Build func(q QuerySpec) (*core.Expr, *core.Descriptor, error)
	// Cat is the catalog the world's queries range over (nil for the
	// DSL example world, whose relations are synthetic).
	Cat *catalog.Catalog
	// ExecProps maps the world's property names for the exec compiler;
	// zero for worlds whose plans the harness does not execute.
	ExecProps exec.Props
	// MaxN bounds QuerySpec.N for this world.
	MaxN int

	// execOnce/execDB lazily populate the world's demo database the
	// first time a request asks the server to execute its plan.
	execOnce sync.Once
	execDB   *data.DB
	// queries is the prepared-query table behind prepared, allocated on
	// first use.
	queriesOnce sync.Once
	queries     []atomic.Pointer[preparedQuery]
}

// ExecDB returns the world's demo database, generated from its catalog
// on first use (seed and per-table row count apply only then). Worlds
// without a catalog return nil — their plans cannot be executed.
func (w *World) ExecDB(seed int64, rows int) *data.DB {
	if w.Cat == nil {
		return nil
	}
	w.execOnce.Do(func() { w.execDB = data.Populate(w.Cat, seed, rows) })
	return w.execDB
}

// QuerySpec names a generated query on the wire: an expression family
// (E1..E4 for OODB and relational worlds, the relational world ignoring
// the materialize step; E1 alone for the DSL world, whose chain has
// neither), a width, and a join-graph shape (linear or star for OODB
// worlds; relational and DSL worlds build linear chains only).
type QuerySpec struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Graph  string `json:"graph,omitempty"` // "" | "linear" | "star"
}

func (q QuerySpec) String() string {
	g := ""
	if q.Graph != "" && q.Graph != "linear" {
		g = "/" + q.Graph
	}
	return fmt.Sprintf("%s/n%d%s", q.Family, q.N, g)
}

func parseGraph(s string) (qgen.Graph, error) {
	switch s {
	case "", "linear":
		return qgen.Linear, nil
	case "star":
		return qgen.Star, nil
	}
	return 0, fmt.Errorf("unknown join graph %q (want linear or star)", s)
}

func (w *World) checkN(n int) error {
	if n < 2 || n > w.MaxN {
		return fmt.Errorf("n=%d out of range for world %s (want 2..%d)", n, w.Name, w.MaxN)
	}
	return nil
}

// checkLinear refuses a join graph other than a linear chain, for the
// worlds that build nothing else.
func (w *World) checkLinear(q QuerySpec) error {
	if g, err := parseGraph(q.Graph); err != nil || g != qgen.Linear {
		return fmt.Errorf("world %s plans linear join graphs only, not %q", w.Name, q.Graph)
	}
	return nil
}

// preparedQuery is one slot of a world's prepared-query table: what Build
// returned for the slot's query shape while the plan cache was at epoch.
type preparedQuery struct {
	epoch uint64
	tree  *core.Expr
	want  *core.Descriptor
}

// prepared returns Build(q), built once per query shape and cache epoch;
// the server's requests share the tree and requirement read-only, as hits
// share a cached plan. A slot is keyed by (family kind, n, graph): the
// kind as qgen.ParseKind reads it (0 when it does not parse), the graph 0
// for ""/"linear", 1 for "star" and 2 for anything else. That is sound
// because a world rejects every graph it does not build and every family
// it cannot parse, so no slot stands for two different trees, and the
// table's size is fixed however the fields are spelt. A tree of an older epoch is built
// again — an in-place catalog change reaches the server's searches
// through /v1/invalidate — and an error is never stored.
func (w *World) prepared(q QuerySpec, epoch uint64) (*core.Expr, *core.Descriptor, error) {
	if err := w.checkN(q.N); err != nil {
		return nil, nil, err
	}
	const kinds, graphs = int(qgen.E4) + 1, 3
	w.queriesOnce.Do(func() { w.queries = make([]atomic.Pointer[preparedQuery], kinds*(w.MaxN+1)*graphs) })
	kind, _ := qgen.ParseKind(q.Family)
	graph := graphs - 1 // a graph parseGraph refuses
	if g, err := parseGraph(q.Graph); err == nil {
		graph = int(g)
	}
	slot := &w.queries[(int(kind)*(w.MaxN+1)+q.N)*graphs+graph]
	if p := slot.Load(); p != nil && p.epoch == epoch {
		return p.tree, p.want, nil
	}
	tree, want, err := w.Build(q)
	if err != nil {
		return nil, nil, err
	}
	slot.Store(&preparedQuery{epoch: epoch, tree: tree, want: want})
	return tree, want, nil
}

// OODBVolcanoWorld builds the hand-coded OODB optimizer, serving queries
// of up to maxN classes of o's catalog. Its rules and Build close over a
// copy of o without the compiled specification, which they never read.
func OODBVolcanoWorld(o *oodb.Opt, maxN int) *World {
	o = o.WithoutSpec()
	return oodbWorld("oodb/volcano", o, o.VolcanoRules(), nil, maxN)
}

// OODBPrairieWorld builds the Prairie-generated OODB optimizer (the
// specification of Section 4 compiled through p2v), serving queries of
// up to maxN classes of o's catalog.
func OODBPrairieWorld(o *oodb.Opt, maxN int) (*World, error) {
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	return oodbWorld("oodb/prairie", o, vrs, rep, maxN), nil
}

// oodbWorld serves rs over o: queries are qgen's families, and a
// P2V-generated rule set (rep non-nil) gets each tree through
// rep.PrepareQuery.
func oodbWorld(name string, o *oodb.Opt, rs *volcano.RuleSet, rep *p2v.Report, maxN int) *World {
	w := &World{
		Name: name,
		RS:   rs,
		Cat:  o.Cat,
		ExecProps: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		},
		MaxN: maxN,
	}
	w.Build = func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
		if err := w.checkN(q.N); err != nil {
			return nil, nil, err
		}
		e, err := qgen.ParseKind(q.Family)
		if err != nil {
			return nil, nil, err
		}
		g, err := parseGraph(q.Graph)
		if err != nil {
			return nil, nil, err
		}
		tree, err := qgen.BuildGraph(o, e, q.N, g)
		if err != nil {
			return nil, nil, err
		}
		if rep == nil {
			return tree, core.NewDescriptor(o.Alg.Props), nil
		}
		return rep.PrepareQuery(tree, nil)
	}
	return w
}

// RelationalWorld builds the Prairie-generated centralized relational
// optimizer (the paper's [5] reconstruction), serving queries of up to
// maxN relations of o's catalog. The query spec's family selects whether a selection
// is applied (E3/E4 add one, mirroring qgen's families).
func RelationalWorld(o *relopt.Opt, maxN int) (*World, error) {
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	w := &World{
		Name: "relational",
		RS:   vrs,
		Cat:  o.Cat,
		ExecProps: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP,
			PA: core.NoProp, MA: core.NoProp, UA: core.NoProp,
		},
		MaxN: maxN,
	}
	w.Build = func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
		if err := w.checkN(q.N); err != nil {
			return nil, nil, err
		}
		if err := w.checkLinear(q); err != nil {
			return nil, nil, err
		}
		e, err := qgen.ParseKind(q.Family)
		if err != nil {
			return nil, nil, err
		}
		names := make([]string, q.N)
		for i := range names {
			names[i] = catalog.ClassName(i + 1)
		}
		spec := relopt.QuerySpec{Relations: names, Select: e.HasSelect()}
		tree, err := o.Build(spec)
		if err != nil {
			return nil, nil, err
		}
		return rep.PrepareQuery(tree, o.Requirement(spec))
	}
	return w, nil
}

// DSLHelpers are the Go implementations of the helpers the
// examples/dslrules specification declares. A DSL specification is
// compiled with those of them it declares (CompileDSL).
func DSLHelpers() map[string]prairielang.HelperImpl {
	return map[string]prairielang.HelperImpl{
		"nlogn": func(args []core.Value) (core.Value, error) {
			n := math.Max(float64(args[0].(core.Float)), 1)
			return core.Float(n * math.Log2(n+1)), nil
		},
		"order_within": func(args []core.Value) (core.Value, error) {
			ord := args[0].(core.Order)
			return core.Bool(ord.Within(args[1].(core.Attrs))), nil
		},
	}
}

// CompileDSL compiles a textual Prairie specification, binding each
// helper it declares to DSLHelpers' implementation of that name; a
// declared helper DSLHelpers lacks is the compiler's positioned error.
func CompileDSL(src string) (*core.RuleSet, error) {
	spec, err := prairielang.Parse(src)
	if err != nil {
		return nil, err
	}
	all := DSLHelpers()
	impls := make(map[string]prairielang.HelperImpl, len(spec.Helpers))
	for _, h := range spec.Helpers {
		if fn, ok := all[h.Name]; ok {
			impls[h.Name] = fn
		}
	}
	return prairielang.Compile(spec, impls)
}

// DSLChain is the dsl world's recipe for its queries, shared with the
// per-rule verifier (internal/rulecheck): the synthetic relations R1..Rn,
// each a RET over a stored file with the one join attribute Ri.a, joined
// left to right on R(i-1).a = Ri.a, and, when sorted, a SORT on R1.a.
type DSLChain struct {
	RET, JOIN, SORT *core.Operation
	NR, AT, JP, Ord core.PropID // num_records, attributes, join_predicate, tuple_order
	ps              *core.PropertySet
	names           []string   // Ri, interned once: a request interns nothing
	attrs           core.Attrs // Ri.a
}

// NewDSLChain looks up what the chain takes from a specification's
// algebra, naming in one error every operator and property it lacks.
func NewDSLChain(rs *core.RuleSet, maxN int, sorted bool) (*DSLChain, error) {
	var missing []string
	op := func(name string) *core.Operation {
		o, ok := rs.Algebra.Op(name)
		if !ok {
			missing = append(missing, "operator "+name)
		}
		return o
	}
	ps := rs.Algebra.Props
	prop := func(name string) core.PropID {
		id, ok := ps.Lookup(name)
		if !ok {
			missing = append(missing, "property "+name)
		}
		return id
	}
	c := &DSLChain{RET: op("RET"), JOIN: op("JOIN"), Ord: core.NoProp, ps: ps}
	c.NR, c.AT, c.JP = prop("num_records"), prop("attributes"), prop("join_predicate")
	if sorted {
		c.SORT, c.Ord = op("SORT"), prop("tuple_order")
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("dsl world: the specification declares no %s", strings.Join(missing, ", "))
	}
	c.names, c.attrs = make([]string, maxN+1), make(core.Attrs, maxN+1)
	for i := 1; i <= maxN; i++ {
		c.names[i] = fmt.Sprintf("R%d", i)
		c.attrs[i] = core.A(c.names[i], "a")
	}
	return c, nil
}

// Build returns the chain over R1..Rn, Ri holding card(i) records. A
// join holds as many records as the larger of its inputs.
func (c *DSLChain) Build(n int, card func(i int) float64) *core.Expr {
	ret := func(i int) *core.Expr {
		d := core.NewDescriptor(c.ps)
		d.SetFloat(c.NR, card(i))
		d.Set(c.AT, core.Attrs{c.attrs[i]})
		leaf := core.NewLeaf(c.names[i], d)
		return core.NewNode(c.RET, d.Clone(), leaf)
	}
	cur := ret(1)
	for i := 2; i <= n; i++ {
		r := ret(i)
		jd := core.NewDescriptor(c.ps)
		jd.SetFloat(c.NR, math.Max(cur.D.Float(c.NR), r.D.Float(c.NR)))
		jd.Set(c.AT, cur.D.AttrList(c.AT).Union(r.D.AttrList(c.AT)))
		jd.Set(c.JP, core.EqAttr(c.attrs[i-1], c.attrs[i]))
		cur = core.NewNode(c.JOIN, jd, cur, r)
	}
	return cur
}

// DSLWorld compiles a textual Prairie specification (the dslrules
// example by default) into a servable world. Queries are SORT over the
// dsl chain (DSLChain) of N relations with halving cardinalities — the
// example's query generalized by width, family E1: any other family is
// refused, as the other worlds refuse one they do not know — so the
// specification must
// declare the operators RET, JOIN and SORT and the properties
// num_records, attributes, join_predicate and tuple_order.
func DSLWorld(src string, maxN int) (*World, error) {
	rs, err := CompileDSL(src)
	if err != nil {
		return nil, err
	}
	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		return nil, err
	}
	chain, err := NewDSLChain(rs, maxN, true)
	if err != nil {
		return nil, err
	}
	w := &World{Name: "dsl", RS: vrs, MaxN: maxN}
	card := func(i int) float64 { return float64(int(1) << uint(10-i%8)) }
	w.Build = func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
		if err := w.checkN(q.N); err != nil {
			return nil, nil, err
		}
		if err := w.checkLinear(q); err != nil {
			return nil, nil, err
		}
		if e, err := qgen.ParseKind(q.Family); err != nil {
			return nil, nil, err
		} else if e != qgen.E1 {
			return nil, nil, fmt.Errorf("world %s plans family E1 only, not %q", w.Name, q.Family)
		}
		cur := chain.Build(q.N, card)
		sd := cur.D.Clone()
		sd.Set(chain.Ord, core.OrderBy(chain.attrs[1]))
		query := core.NewNode(chain.SORT, sd, cur)
		return rep.PrepareQuery(query, nil)
	}
	return w, nil
}

// Registry holds the worlds a server exposes, by name.
type Registry struct {
	worlds map[string]*World
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{worlds: map[string]*World{}} }

// Add registers a world under its name; duplicate names panic (a
// server's world set is static configuration).
func (r *Registry) Add(w *World) {
	if _, dup := r.worlds[w.Name]; dup {
		panic("server: duplicate world " + w.Name)
	}
	r.worlds[w.Name] = w
}

// Lookup returns the named world.
func (r *Registry) Lookup(name string) (*World, bool) {
	w, ok := r.worlds[name]
	return w, ok
}

// Names returns the registered world names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.worlds))
	for name := range r.worlds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry prepares the standard world set: both OODB rule-set
// flavors and the relational optimizer over freshly generated catalogs
// of maxN classes, plus — when dslSrc is non-empty — the DSL-compiled
// example rules.
func DefaultRegistry(maxN int, seed int64, dslSrc string) (*Registry, error) {
	if maxN <= 0 {
		maxN = 6
	}
	r := NewRegistry()
	r.Add(OODBVolcanoWorld(oodb.New(qgen.Catalog(maxN, seed, false)), maxN))
	pw, err := OODBPrairieWorld(oodb.New(qgen.Catalog(maxN, seed, false)), maxN)
	if err != nil {
		return nil, err
	}
	r.Add(pw)
	rw, err := RelationalWorld(relopt.New(catalog.Generate(catalog.DefaultGen(maxN, seed, true))), maxN)
	if err != nil {
		return nil, err
	}
	r.Add(rw)
	if dslSrc != "" {
		dw, err := DSLWorld(dslSrc, maxN)
		if err != nil {
			return nil, err
		}
		r.Add(dw)
	}
	return r, nil
}
