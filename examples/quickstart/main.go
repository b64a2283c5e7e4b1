// Quickstart: the smallest complete Prairie optimizer, written in the
// Prairie rule-specification language and compiled through the public
// API. It declares a two-operator algebra (RET, JOIN), one transformation
// rule (join commutativity) and two implementation rules, then optimizes
// a two-way join.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"prairie"
)

// spec is the optimizer. A T-rule maps operator trees to equivalent
// operator trees; an I-rule maps an operator to an implementing
// algorithm. Every node carries a descriptor (D1, D2, ...) of the
// declared properties.
const spec = `
algebra quickstart;

property num_records : float;
property cost : cost;

operator RET(1);
operator JOIN(2);
algorithm File_scan(1) implements RET;
algorithm Nested_loops(2) implements JOIN;

trule join_commute:
  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
posttest {
  D4 = D3;
}

// Scanning costs one unit per stored tuple.
irule ret_file_scan:
  RET(?1:D1):D2 => File_scan(?1):D3
preopt {
  D3 = D2;
}
postopt {
  D3.cost = D1.num_records;
}

// Figure 6 of the paper: scan the outer once, the inner per outer tuple.
irule join_nested_loops:
  JOIN(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
preopt {
  D5 = D3;
  D4 = D1;
}
postopt {
  D5.cost = D4.cost + D4.num_records * D2.cost;
}
`

func main() {
	// 1. Compile the specification; it declares no helper functions.
	rs, err := prairie.ParseRules(spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	alg := rs.Algebra
	nr := alg.Props.MustLookup("num_records")
	cost := alg.Props.MustLookup("cost")

	// 2. An initialized operator tree: JOIN(RET(emp), RET(dept)).
	leaf := func(name string, card float64) *prairie.Expr {
		d := prairie.NewDescriptor(alg.Props)
		d.SetFloat(nr, card)
		return prairie.NewLeaf(name, d)
	}
	retOf := func(l *prairie.Expr) *prairie.Expr {
		return prairie.NewNode(alg.MustOp("RET"), l.D.Clone(), l)
	}
	jd := prairie.NewDescriptor(alg.Props)
	jd.SetFloat(nr, 10000*64)
	query := prairie.NewNode(alg.MustOp("JOIN"), jd, retOf(leaf("emp", 10000)), retOf(leaf("dept", 64)))

	// 3. Translate with P2V and optimize.
	plan, stats, err := prairie.Optimize(rs, query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:       ", query)
	fmt.Println("winning plan:", plan)
	fmt.Printf("cost:         %.0f (commutativity put the small relation on the outside)\n",
		plan.D.Float(cost))
	fmt.Printf("search:       %d equivalence classes, %d expressions\n",
		stats.Groups, stats.Exprs)
}
