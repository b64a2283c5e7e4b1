// Package rulecheck is a per-rule differential verifier: for every
// trans_rule of a Volcano rule set it generates logical trees that match
// the rule's pattern, applies the single rule in isolation through the
// binding/action machinery (volcano's tree-level application hook), and
// executes both the original and the rewritten tree with the naive
// oracle over generated catalogs and data, asserting bag-equality. It
// promotes the repo's whole-plan differential testing to a statement
// about each rule on its own — the correctness filter the ROADMAP's
// rule-discovery mode needs.
//
// A mutation-testing mode (mutate.go) corrupts rule actions in seeded,
// deterministic ways and asserts the verifier catches the corruptions:
// the kill rate is the test of the test.
package rulecheck

import (
	"fmt"
	"math"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/volcano"
)

// World is one rule set under verification: the compiled rules, the
// catalog its queries range over, the exec-property mapping the oracle
// needs, and the seed trees pattern-directed generation starts from.
type World struct {
	Name  string
	RS    *volcano.RuleSet
	Cat   *catalog.Catalog
	Props exec.Props
	Seeds []*core.Expr
}

// worldN is the class count verification catalogs use: three classes
// reach every pattern depth in the shipped rule sets (the deepest LHS
// nests two operators) while keeping oracle joins cheap.
const worldN = 3

// verifyCatalog generates the small catalog verification runs over.
// The benchmark defaults (cards 2^6..2^12) make Distinct counts so
// large that at ~16 populated rows selections and joins come back
// empty, and empty-vs-empty passes vacuously; cards 16..32 keep
// Distinct(a) at 8..16 and Distinct(b) at 4..8, so every operator
// produces rows the oracle can actually distinguish.
func verifyCatalog(seed int64, indexed bool) *catalog.Catalog {
	return catalog.Generate(catalog.GenOptions{
		NumClasses: worldN,
		Seed:       seed,
		Indexed:    indexed,
		MinCardExp: 4,
		MaxCardExp: 5,
		Refs:       true,
	})
}

// OODBVolcanoWorld builds the hand-coded OODB optimizer world.
func OODBVolcanoWorld(seed int64) (*World, error) {
	cat := verifyCatalog(seed, false)
	o := oodb.New(cat)
	w := &World{
		Name: "oodb/volcano",
		RS:   o.VolcanoRules(),
		Cat:  cat,
		Props: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		},
	}
	if err := addOODBSeeds(w, o); err != nil {
		return nil, err
	}
	return w, nil
}

// OODBPrairieWorld builds the Prairie-specified OODB optimizer world
// (compiled by prairielang, translated by P2V).
func OODBPrairieWorld(seed int64) (*World, error) {
	cat := verifyCatalog(seed, false)
	o := oodb.New(cat)
	vrs, _, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	w := &World{
		Name: "oodb/prairie",
		RS:   vrs,
		Cat:  cat,
		Props: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		},
	}
	if err := addOODBSeeds(w, o); err != nil {
		return nil, err
	}
	return w, nil
}

// addOODBSeeds fills the world with the paper's E1–E4 families at widths
// 1..3 plus the pattern-directed shapes the families never produce: the
// pointer-equality join (join_to_mat) and the UNNEST shapes
// (unnest_mat_commute).
func addOODBSeeds(w *World, o *oodb.Opt) error {
	add := func(tree *core.Expr, err error) error {
		if err != nil {
			return err
		}
		w.Seeds = append(w.Seeds, tree)
		return nil
	}
	for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
		for n := 1; n <= worldN; n++ {
			if n == 1 && !e.HasSelect() && !e.HasMat() {
				continue // E1 n=1 is a bare RET; nothing matches it
			}
			if err := add(qgen.Build(o, e, n)); err != nil {
				return err
			}
		}
	}
	if err := add(qgen.BuildGraph(o, qgen.E1, worldN, qgen.Star)); err != nil {
		return err
	}
	if err := add(qgen.BuildRefJoin(o, 1)); err != nil {
		return err
	}
	if err := add(qgen.BuildUnnest(o, 1, true)); err != nil {
		return err
	}
	return add(qgen.BuildUnnest(o, 1, false))
}

// RelationalWorld builds the paper's running-example relational
// optimizer world (Prairie-specified, P2V-translated).
func RelationalWorld(seed int64) (*World, error) {
	cat := verifyCatalog(seed, true)
	o := relopt.New(cat)
	vrs, _, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		return nil, err
	}
	w := &World{
		Name: "relational",
		RS:   vrs,
		Cat:  cat,
		Props: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP,
			PA: core.NoProp, MA: core.NoProp, UA: core.NoProp,
		},
	}
	for n := 2; n <= worldN; n++ {
		for _, sel := range []bool{false, true} {
			names := make([]string, n)
			for i := range names {
				names[i] = catalog.ClassName(i + 1)
			}
			tree, err := o.Build(relopt.QuerySpec{Relations: names, Select: sel})
			if err != nil {
				return nil, err
			}
			w.Seeds = append(w.Seeds, tree)
		}
	}
	return w, nil
}

// DSLHelpers are the helper implementations the examples/dslrules
// specification imports. This is the canonical copy; the server's world
// registry uses the same map.
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

// DSLWorld makes a verification world of a rule set compiled from a
// textual Prairie specification. The synthetic relations R1..Rn carry a
// single join attribute "a", mirroring the server's DSL world, but here
// backed by a real catalog so the oracle can execute against generated
// rows.
func DSLWorld(rs *core.RuleSet) (*World, error) {
	vrs, _, err := p2v.Translate(rs)
	if err != nil {
		return nil, err
	}
	cat := catalog.New()
	for i := 1; i <= worldN; i++ {
		cat.Add(&catalog.Class{
			Name: fmt.Sprintf("R%d", i), Card: 8, TupleSize: 8,
			Attrs: []catalog.Attribute{{Name: "a", Distinct: 4}},
		})
	}
	retOp, okRet := rs.Algebra.Op("RET")
	joinOp, okJoin := rs.Algebra.Op("JOIN")
	if !okRet || !okJoin {
		return nil, fmt.Errorf("rulecheck: DSL verification needs RET and JOIN operators in the specification's algebra")
	}
	ps := rs.Algebra.Props
	nr, okNR := ps.Lookup("num_records")
	at, okAT := ps.Lookup("attributes")
	jp, okJP := ps.Lookup("join_predicate")
	if !okNR || !okAT || !okJP {
		return nil, fmt.Errorf("rulecheck: DSL verification needs num_records, attributes, and join_predicate properties")
	}
	w := &World{
		Name: "dsl",
		RS:   vrs,
		Cat:  cat,
		Props: exec.Props{
			Ord: lookupOrNo(ps, "tuple_order"), JP: jp,
			SP: lookupOrNo(ps, "selection_predicate"),
			PA: core.NoProp, MA: core.NoProp, UA: core.NoProp,
		},
	}
	ret := func(i int) *core.Expr {
		name := fmt.Sprintf("R%d", i)
		cl := cat.MustClass(name)
		d := core.NewDescriptor(ps)
		d.SetFloat(nr, cl.Card)
		d.Set(at, cl.AttrSet())
		leaf := core.NewLeaf(name, d)
		return core.NewNode(retOp, d.Clone(), leaf)
	}
	for n := 2; n <= worldN; n++ {
		cur := ret(1)
		for i := 2; i <= n; i++ {
			r := ret(i)
			jd := core.NewDescriptor(ps)
			jd.SetFloat(nr, math.Max(cur.D.Float(nr), r.D.Float(nr)))
			jd.Set(at, cur.D.AttrList(at).Union(r.D.AttrList(at)))
			jd.Set(jp, core.EqAttr(
				core.A(fmt.Sprintf("R%d", i-1), "a"), core.A(fmt.Sprintf("R%d", i), "a")))
			cur = core.NewNode(joinOp, jd, cur, r)
		}
		w.Seeds = append(w.Seeds, cur)
	}
	return w, nil
}

func lookupOrNo(ps *core.PropertySet, name string) core.PropID {
	if id, ok := ps.Lookup(name); ok {
		return id
	}
	return core.NoProp
}

// ShippedWorlds builds the verification worlds for every shipped rule
// set: both OODB flavors, the relational optimizer, and the DSL example
// (from its embedded source).
func ShippedWorlds(seed int64, dslSrc string) ([]*World, error) {
	ov, err := OODBVolcanoWorld(seed)
	if err != nil {
		return nil, err
	}
	op, err := OODBPrairieWorld(seed)
	if err != nil {
		return nil, err
	}
	rel, err := RelationalWorld(seed)
	if err != nil {
		return nil, err
	}
	worlds := []*World{ov, op, rel}
	if dslSrc != "" {
		rs, err := prairielang.ParseAndCompile(dslSrc, DSLHelpers())
		if err != nil {
			return nil, err
		}
		dw, err := DSLWorld(rs)
		if err != nil {
			return nil, err
		}
		worlds = append(worlds, dw)
	}
	return worlds, nil
}
