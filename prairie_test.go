package prairie_test

import (
	"strings"
	"testing"

	"prairie"
)

// TestFacadeEndToEnd drives the public API exactly as the quickstart
// example does: declare an algebra and rules, compile, translate,
// optimize.
func TestFacadeEndToEnd(t *testing.T) {
	rs, err := prairie.ParseRules(`
		algebra facade;
		property num_records : float;
		property cost : cost;
		operator RET(1);
		operator JOIN(2);
		algorithm File_scan(1) implements RET;
		algorithm Nested_loops(2) implements JOIN;
		trule join_commute:
		  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
		posttest { D4 = D3; }
		irule ret_file_scan:
		  RET(?1:D1):D2 => File_scan(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = D1.num_records; }
		irule join_nested_loops:
		  JOIN(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
		preopt { D5 = D3; D4 = D1; }
		postopt { D5.cost = D4.cost + D4.num_records * D2.cost; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	alg := rs.Algebra
	nr, cost := alg.Props.MustLookup("num_records"), alg.Props.MustLookup("cost")
	ret, join := alg.MustOp("RET"), alg.MustOp("JOIN")

	leaf := func(name string, card float64) *prairie.Expr {
		d := prairie.NewDescriptor(alg.Props)
		d.SetFloat(nr, card)
		return prairie.NewLeaf(name, d)
	}
	retOf := func(l *prairie.Expr) *prairie.Expr { return prairie.NewNode(ret, l.D.Clone(), l) }
	jd := prairie.NewDescriptor(alg.Props)
	jd.SetFloat(nr, 1000*10)
	query := prairie.NewNode(join, jd, retOf(leaf("big", 1000)), retOf(leaf("small", 10)))

	plan, stats, err := prairie.Optimize(rs, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); got != "Nested_loops(File_scan(small), File_scan(big))" {
		t.Errorf("plan = %s", got)
	}
	if plan.D.Float(cost) != 10+10*1000 {
		t.Errorf("cost = %g", plan.D.Float(cost))
	}
	if stats.Groups != 5 {
		t.Errorf("groups = %d", stats.Groups)
	}

	// The explicit two-step path matches.
	vrs, rep, err := prairie.Generate(rs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CostProp != "cost" {
		t.Errorf("report cost prop = %q", rep.CostProp)
	}
	opt := prairie.NewOptimizer(vrs)
	plan2, err := opt.Optimize(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.String() != plan.String() {
		t.Error("two-step path diverged from Optimize")
	}
}

func TestFacadeParseRules(t *testing.T) {
	src := `
		algebra tiny;
		property cost : cost;
		operator R(1);
		algorithm Scan(1) implements R;
		irule r_scan:
		  R(?1:D1):D2 => Scan(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = 1; }`
	rs, err := prairie.ParseRules(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.IRules) != 1 || rs.Algebra.Name != "tiny" {
		t.Errorf("rules = %d, algebra = %q", len(rs.IRules), rs.Algebra.Name)
	}
	if errs := prairie.CheckRules(src); len(errs) != 0 {
		t.Errorf("CheckRules = %v", errs)
	}
	bad := strings.Replace(src, "D3.cost = 1;", "D3.wibble = 1;", 1)
	if errs := prairie.CheckRules(bad); len(errs) == 0 {
		t.Error("CheckRules accepted unknown property")
	}
}

func TestFacadeValues(t *testing.T) {
	a := prairie.A("R", "x")
	if !prairie.OrderBy(a).Within(prairie.Attrs{a}) {
		t.Error("OrderBy/Within")
	}
	if !prairie.DontCareOrder.IsDontCare() {
		t.Error("DontCareOrder")
	}
	p := prairie.And(prairie.EqAttr(a, prairie.A("S", "y")), prairie.EqConst(a, prairie.Int(1)))
	if len(p.Conjuncts()) != 2 {
		t.Error("And/Conjuncts")
	}
	if !prairie.TruePred.IsTrue() {
		t.Error("TruePred")
	}
}
