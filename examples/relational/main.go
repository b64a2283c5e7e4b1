// Relational: the paper's running example end to end (Sections 2 and 3).
// It builds the centralized relational optimizer — RET, JOIN, SORT with
// File_scan, Index_scan, Nested_loops, Merge_join, Merge_sort and Null —
// as a Prairie specification, shows the P2V translation report (enforcer
// deduction, automatic property classification, rule merging with the
// JOPR alias of footnote 5), and optimizes the paper's Figure 1 query
// SORT(JOIN(RET(R1), RET(R2))).
//
// Run with: go run ./examples/relational
package main

import (
	"fmt"
	"log"

	"prairie/internal/catalog"
	"prairie/internal/p2v"
	"prairie/internal/relopt"
	"prairie/internal/volcano"

	"prairie/internal/core"
)

func main() {
	// A small catalog: two relations with indexes on attribute "b".
	cat := catalog.New()
	cat.Add(&catalog.Class{
		Name: "R1", Card: 1024, TupleSize: 64,
		Attrs: []catalog.Attribute{
			{Name: "a", Distinct: 512}, {Name: "b", Distinct: 256},
		},
		Indexes: []string{"b"},
	})
	cat.Add(&catalog.Class{
		Name: "R2", Card: 128, TupleSize: 64,
		Attrs: []catalog.Attribute{
			{Name: "a", Distinct: 64}, {Name: "b", Distinct: 32},
		},
	})

	o := relopt.New(cat)
	rs := o.PrairieRules()
	fmt.Printf("Prairie specification: %d T-rules, %d I-rules\n\n", len(rs.TRules), len(rs.IRules))
	for _, r := range rs.TRules {
		fmt.Println("  T-rule", r)
	}
	for _, r := range rs.IRules {
		fmt.Println("  I-rule", r)
	}

	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(rep)

	// The Figure 1 query: SORT(JOIN(RET(R1), RET(R2))) on R1.a = R2.a,
	// sorted on R1.a.
	q := relopt.QuerySpec{Relations: []string{"R1", "R2"}}
	inner, err := o.Build(q)
	if err != nil {
		log.Fatal(err)
	}
	tree := o.Sort(inner, core.A("R1", "a"))
	fmt.Println("query:", tree)

	// SORT is an enforcer-operator: PrepareQuery converts the node into
	// a physical-property requirement, as a Volcano user would.
	prepared, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: %s with required %s\n\n", prepared, req)

	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(prepared, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("winning plan (cost %.1f):\n  %s\n\n", plan.Cost(vrs.Class), plan)
	fmt.Print("search statistics:\n", opt.Stats)
}
