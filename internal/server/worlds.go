package server

import (
	"fmt"
	"math"
	"sort"
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
	"prairie/internal/rulecheck"
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
// (E1..E4 for OODB worlds; relational and DSL worlds read N and ignore
// the materialize step), a width, and a join-graph shape.
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
// because each world either rejects a field it cannot parse or ignores
// it, so no slot stands for two different trees, and the table's size is
// fixed however the fields are spelt. A tree of an older epoch is built
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

// OODBVolcanoWorld builds the hand-coded OODB optimizer over a catalog
// of maxN classes.
func OODBVolcanoWorld(cat *catalog.Catalog, maxN int) *World {
	return oodbVolcanoWorld(oodb.New(cat), maxN)
}

// oodbVolcanoWorld builds the world on o's algebra alone: its rules and
// Build close over a copy of o without the compiled specification, which
// they never read.
func oodbVolcanoWorld(o *oodb.Opt, maxN int) *World {
	o, cat := o.WithoutSpec(), o.Cat
	w := &World{
		Name: "oodb/volcano",
		RS:   o.VolcanoRules(),
		Cat:  cat,
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
		return tree, core.NewDescriptor(o.Alg.Props), nil
	}
	return w
}

// OODBPrairieWorld builds the Prairie-generated OODB optimizer (the
// specification of Section 4 compiled through p2v) over a catalog of
// maxN classes.
func OODBPrairieWorld(cat *catalog.Catalog, maxN int) (*World, error) {
	o := oodb.New(cat)
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	w := &World{
		Name: "oodb/prairie",
		RS:   vrs,
		Cat:  cat,
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
		return rep.PrepareQuery(tree, nil)
	}
	return w, nil
}

// RelationalWorld builds the Prairie-generated centralized relational
// optimizer (the paper's [5] reconstruction) over a catalog of maxN
// relations. The query spec's family selects whether a selection is
// applied (E3/E4 add one, mirroring qgen's families).
func RelationalWorld(cat *catalog.Catalog, maxN int) (*World, error) {
	o := relopt.New(cat)
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	w := &World{
		Name: "relational",
		RS:   vrs,
		Cat:  cat,
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

// DSLWorld compiles a textual Prairie specification (the dslrules
// example by default) into a servable world. Queries are SORT over a
// linear JOIN chain of N synthetic relations R1..RN with halving
// cardinalities — the example's query generalized by width.
func DSLWorld(src string, helpers map[string]prairielang.HelperImpl, maxN int) (*World, error) {
	spec, err := prairielang.Parse(src)
	if err != nil {
		return nil, err
	}
	rs, err := prairielang.Compile(spec, helpers)
	if err != nil {
		return nil, err
	}
	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		return nil, err
	}
	ps := rs.Algebra.Props
	nr := ps.MustLookup("num_records")
	at := ps.MustLookup("attributes")
	jp := ps.MustLookup("join_predicate")
	ord := ps.MustLookup("tuple_order")
	retOp := rs.Algebra.MustOp("RET")
	joinOp := rs.Algebra.MustOp("JOIN")
	sortOp := rs.Algebra.MustOp("SORT")
	w := &World{Name: "dsl", RS: vrs, MaxN: maxN}
	// names[i] and attrs[i] are Ri and Ri.a, interned here so that Build
	// (the request path) does not.
	names, attrs := make([]string, maxN+1), make(core.Attrs, maxN+1)
	for i := 1; i <= maxN; i++ {
		names[i] = fmt.Sprintf("R%d", i)
		attrs[i] = core.A(names[i], "a")
	}
	w.Build = func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
		if err := w.checkN(q.N); err != nil {
			return nil, nil, err
		}
		ret := func(i int) *core.Expr {
			d := core.NewDescriptor(ps)
			d.SetFloat(nr, float64(int(1)<<uint(10-i%8)))
			d.Set(at, core.Attrs{attrs[i]})
			leaf := core.NewLeaf(names[i], d)
			return core.NewNode(retOp, d.Clone(), leaf)
		}
		cur := ret(1)
		for i := 2; i <= q.N; i++ {
			r := ret(i)
			jd := core.NewDescriptor(ps)
			jd.SetFloat(nr, math.Max(cur.D.Float(nr), r.D.Float(nr)))
			jd.Set(at, cur.D.AttrList(at).Union(r.D.AttrList(at)))
			jd.Set(jp, core.EqAttr(attrs[i-1], attrs[i]))
			cur = core.NewNode(joinOp, jd, cur, r)
		}
		sd := cur.D.Clone()
		sd.Set(ord, core.OrderBy(attrs[1]))
		query := core.NewNode(sortOp, sd, cur)
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
	r.Add(OODBVolcanoWorld(qgen.Catalog(maxN, seed, false), maxN))
	pw, err := OODBPrairieWorld(qgen.Catalog(maxN, seed, false), maxN)
	if err != nil {
		return nil, err
	}
	r.Add(pw)
	rw, err := RelationalWorld(catalog.Generate(catalog.DefaultGen(maxN, seed, true)), maxN)
	if err != nil {
		return nil, err
	}
	r.Add(rw)
	if dslSrc != "" {
		dw, err := DSLWorld(dslSrc, rulecheck.DSLHelpers(), maxN)
		if err != nil {
			return nil, err
		}
		r.Add(dw)
	}
	return r, nil
}
