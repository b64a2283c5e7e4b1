// OODB: the paper's headline experiment in miniature. It compiles the
// Open OODB optimizer's Prairie-language specification (22 T-rules, 11
// I-rules), translates it with P2V, optimizes the most complex workload
// family (E4: SELECT over JOINs over MATs over RETs) with BOTH the
// generated and the hand-coded Volcano rule sets, verifies they agree,
// and executes the winning plan against synthetic data.
//
// Run with: go run ./examples/oodb
package main

import (
	"fmt"
	"log"

	"prairie/internal/catalog"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

func main() {
	const n = 3 // classes; joins = n-1
	// Small power-of-two cardinalities keep the demo's execution phase
	// instant while preserving the optimizer-relevant statistics.
	cat := catalog.Generate(catalog.GenOptions{
		NumClasses: n, Seed: 101, Indexed: true,
		MinCardExp: 5, MaxCardExp: 7, Refs: true,
	})

	// Prairie path: DSL -> rule set -> P2V -> Volcano rule set.
	po := oodb.New(cat)
	pvrs, rep, err := p2v.Translate(po.PrairieRules())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Prairie spec: %d T-rules + %d I-rules  =>  %d trans + %d impl + %d enforcers\n",
		rep.TRulesIn, rep.IRulesIn, rep.TransOut, rep.ImplsOut, rep.EnforcersOut)

	tree, err := qgen.Build(po, qgen.E4, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", tree)
	prepared, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		log.Fatal(err)
	}
	popt := volcano.NewOptimizer(pvrs)
	pplan, err := popt.Optimize(prepared, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prairie plan (cost %.1f):  %s\n", pplan.Cost(pvrs.Class), pplan)

	// Hand-coded Volcano baseline on the same query.
	vo := oodb.New(catalog.Generate(catalog.GenOptions{
		NumClasses: n, Seed: 101, Indexed: true,
		MinCardExp: 5, MaxCardExp: 7, Refs: true,
	}))
	vvrs := vo.VolcanoRules()
	vtree, err := qgen.Build(vo, qgen.E4, n)
	if err != nil {
		log.Fatal(err)
	}
	vopt := volcano.NewOptimizer(vvrs)
	vplan, err := vopt.Optimize(vtree, vo.Alg.NewDesc())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volcano plan (cost %.1f):  %s\n", vplan.Cost(vvrs.Class), vplan)
	fmt.Printf("equivalence classes: prairie %d, volcano %d (must match)\n",
		popt.Stats.Groups, vopt.Stats.Groups)
	if popt.Stats.Groups != vopt.Stats.Groups {
		log.Fatal("search spaces diverged")
	}

	// Execute the Prairie winner on synthetic data.
	db := data.Populate(cat, 7, 128)
	comp := exec.NewCompiler(db, exec.Props{
		Ord: po.Ord, JP: po.JP, SP: po.SP, PA: po.PA, MA: po.MA, UA: po.UA,
	})
	it, err := comp.Compile(pplan)
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.Run(it)
	if err != nil {
		log.Fatal(err)
	}
	// Cross-check against a naive evaluation of the logical query.
	naive := &exec.Naive{DB: db, P: exec.Props{
		Ord: po.Ord, JP: po.JP, SP: po.SP, PA: po.PA, MA: po.MA, UA: po.UA,
	}}
	want, err := naive.Eval(tree)
	if err != nil {
		log.Fatal(err)
	}
	agrees := "agrees with"
	if !exec.SameBag(res, want) {
		agrees = "DISAGREES with"
	}
	fmt.Printf("executed winner: %d tuples of %d columns (%s the naive evaluation; the query is highly selective)\n",
		len(res.Rows), len(res.Schema), agrees)
}
