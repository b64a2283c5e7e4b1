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

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/server"
)

// World is one served world under verification — the rule set, catalog
// and exec-property mapping the server builds (internal/server) — with
// the seed trees pattern-directed generation starts from.
type World struct {
	*server.World
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

// OODBVolcanoWorld builds the server's hand-coded OODB optimizer world
// over a verification catalog.
func OODBVolcanoWorld(seed int64) (*World, error) {
	o := oodb.New(verifyCatalog(seed, false))
	return oodbSeeds(server.OODBVolcanoWorld(o, worldN), o)
}

// OODBPrairieWorld builds the server's Prairie-specified OODB optimizer
// world (compiled by prairielang, translated by P2V) over a verification
// catalog.
func OODBPrairieWorld(seed int64) (*World, error) {
	o := oodb.New(verifyCatalog(seed, false))
	sw, err := server.OODBPrairieWorld(o, worldN)
	if err != nil {
		return nil, err
	}
	return oodbSeeds(sw, o)
}

// oodbSeeds seeds sw with the paper's E1–E4 families over o at widths
// 1..3 plus the pattern-directed shapes the families never produce: the
// pointer-equality join (join_to_mat) and the UNNEST shapes
// (unnest_mat_commute).
func oodbSeeds(sw *server.World, o *oodb.Opt) (*World, error) {
	w := &World{World: sw}
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
				return nil, err
			}
		}
	}
	if err := add(qgen.BuildGraph(o, qgen.E1, worldN, qgen.Star)); err != nil {
		return nil, err
	}
	if err := add(qgen.BuildRefJoin(o, 1)); err != nil {
		return nil, err
	}
	if err := add(qgen.BuildUnnest(o, 1, true)); err != nil {
		return nil, err
	}
	if err := add(qgen.BuildUnnest(o, 1, false)); err != nil {
		return nil, err
	}
	return w, nil
}

// RelationalWorld builds the server's running-example relational
// optimizer world (Prairie-specified, P2V-translated) over a verification
// catalog.
func RelationalWorld(seed int64) (*World, error) {
	o := relopt.New(verifyCatalog(seed, true))
	sw, err := server.RelationalWorld(o, worldN)
	if err != nil {
		return nil, err
	}
	w := &World{World: sw}
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

// DSLWorld makes a verification world of a rule set compiled from a
// textual Prairie specification. Its seeds are the server's dsl chain
// (server.DSLChain) over two and three relations, but here backed by a
// real catalog so the oracle can execute against generated rows — which
// the server's world has not, so this world is built here.
func DSLWorld(rs *core.RuleSet) (*World, error) {
	vrs, _, err := p2v.Translate(rs)
	if err != nil {
		return nil, err
	}
	chain, err := server.NewDSLChain(rs, worldN, false)
	if err != nil {
		return nil, err
	}
	const card = 8
	cat := catalog.New()
	for i := 1; i <= worldN; i++ {
		cat.Add(&catalog.Class{
			Name: fmt.Sprintf("R%d", i), Card: card, TupleSize: 8,
			Attrs: []catalog.Attribute{{Name: "a", Distinct: 4}},
		})
	}
	ps := rs.Algebra.Props
	w := &World{World: &server.World{
		Name: "dsl",
		RS:   vrs,
		Cat:  cat,
		ExecProps: exec.Props{
			Ord: lookupOrNo(ps, "tuple_order"), JP: chain.JP,
			SP: lookupOrNo(ps, "selection_predicate"),
			PA: core.NoProp, MA: core.NoProp, UA: core.NoProp,
		},
	}}
	for n := 2; n <= worldN; n++ {
		w.Seeds = append(w.Seeds, chain.Build(n, func(int) float64 { return card }))
	}
	return w, nil
}

func lookupOrNo(ps *core.PropertySet, name string) core.PropID {
	if id, ok := ps.Lookup(name); ok {
		return id
	}
	return core.NoProp
}

// ShippedWorlds builds the verification worlds for every world the
// server serves: both OODB flavors, the relational optimizer, and — when
// dslSrc is non-empty — the DSL world, compiled as the server compiles it.
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
		rs, err := server.CompileDSL(dslSrc)
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
