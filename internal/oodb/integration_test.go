package oodb_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

func prairiePath(t *testing.T, n int, seed int64, indexed bool) (*oodb.Opt, *volcano.RuleSet, *p2v.Report) {
	t.Helper()
	o := oodb.New(qgen.Catalog(n, seed, indexed))
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		t.Fatal(err)
	}
	return o, vrs, rep
}

func volcanoPath(t *testing.T, n int, seed int64, indexed bool) (*oodb.Opt, *volcano.RuleSet) {
	t.Helper()
	o := oodb.New(qgen.Catalog(n, seed, indexed))
	vrs := o.VolcanoRules()
	if errs := vrs.Validate(); len(errs) != 0 {
		t.Fatalf("hand-coded rule set invalid: %v", errs)
	}
	return o, vrs
}

// TestSpecCounts asserts the paper's §4.2 rule-count claims: the Prairie
// specification has 22 T-rules and 11 I-rules; P2V reconstitutes a
// Volcano rule set with the same counts as the hand-coded one
// (17 trans_rules, 9 impl_rules) plus the deduced enforcer.
func TestSpecCounts(t *testing.T) {
	o, vrs, rep := prairiePath(t, 2, 101, false)
	if rep.TRulesIn != 22 || rep.IRulesIn != 11 {
		t.Errorf("Prairie spec has %d T-rules, %d I-rules; want 22, 11", rep.TRulesIn, rep.IRulesIn)
	}
	if rep.TransOut != 17 || rep.ImplsOut != 9 || rep.EnforcersOut != 1 {
		t.Errorf("generated %d trans, %d impl, %d enforcers; want 17, 9, 1",
			rep.TransOut, rep.ImplsOut, rep.EnforcersOut)
	}
	hand := oodb.New(qgen.Catalog(2, 101, false)).VolcanoRules()
	if len(hand.Trans) != 17 || len(hand.Impls) != 9 || len(hand.Enforcers) != 1 {
		t.Errorf("hand-coded %d trans, %d impl, %d enforcers; want 17, 9, 1",
			len(hand.Trans), len(hand.Impls), len(hand.Enforcers))
	}
	if rep.Aliases["JOPR"] != "JOIN" {
		t.Errorf("aliases = %v", rep.Aliases)
	}
	if len(rep.EnforcerOperators) != 1 || rep.EnforcerOperators[0] != "SORT" {
		t.Errorf("enforcer operators = %v", rep.EnforcerOperators)
	}
	if got := rep.EnforcedProps["SORT"]; len(got) != 1 || got[0] != "tuple_order" {
		t.Errorf("SORT enforces %v", got)
	}
	if len(rep.DroppedTRules) != 5 {
		t.Errorf("dropped T-rules = %v, want 5", rep.DroppedTRules)
	}
	if len(rep.PhysProps) != 1 || rep.PhysProps[0] != "tuple_order" {
		t.Errorf("physical properties = %v", rep.PhysProps)
	}
	if !vrs.Class.IsPhys(o.Ord) {
		t.Error("generated classification misses tuple_order")
	}
	// Structural constraints the paper states: PROJECT appears in one
	// impl_rule and no trans_rules; UNNEST in exactly one of each.
	countOps := func(rules []*volcano.TransRule, name string) int {
		n := 0
		for _, r := range rules {
			for _, op := range append(r.LHS.Ops(), r.RHS.Ops()...) {
				if op.Name == name {
					n++
					break
				}
			}
		}
		return n
	}
	if got := countOps(vrs.Trans, "PROJECT"); got != 0 {
		t.Errorf("PROJECT in %d trans_rules, want 0", got)
	}
	if got := countOps(vrs.Trans, "UNNEST"); got != 1 {
		t.Errorf("UNNEST in %d trans_rules, want 1", got)
	}
	for _, want := range []struct {
		op string
		n  int
	}{{"PROJECT", 1}, {"UNNEST", 1}, {"RET", 3}, {"MAT", 2}} {
		n := 0
		for _, r := range vrs.Impls {
			if r.Op.Name == want.op {
				n++
			}
		}
		if n != want.n {
			t.Errorf("%s has %d impl_rules, want %d", want.op, n, want.n)
		}
	}
	// Eight algorithms (Merge_sort is the enforcer, Null disappears).
	algs := map[string]bool{}
	for _, r := range vrs.Impls {
		algs[r.Alg.Name] = true
	}
	if len(algs) != 8 {
		t.Errorf("impl rules use %d algorithms, want 8: %v", len(algs), algs)
	}
}

// TestRestRootsAgree: every trans_rule the hand-coded rule set shares by
// name with the P2V-generated one names the same root properties its
// deferred actions write (TransRule.RestRoot) — declared by hand on the
// one side, read off the rule's cut on the other — so a firing whose only
// new node is the root takes the same properties from its group in both.
func TestRestRootsAgree(t *testing.T) {
	_, pvrs, _ := prairiePath(t, 2, 101, false)
	_, vvrs := volcanoPath(t, 2, 101, false)
	restRoot := func(rs *volcano.RuleSet, r *volcano.TransRule) []string {
		var names []string
		for _, id := range r.RestRoot {
			names = append(names, rs.Algebra.Props.At(id).Name)
		}
		slices.Sort(names)
		return names
	}
	hand := map[string]*volcano.TransRule{}
	for _, r := range vvrs.Trans {
		hand[r.Name] = r
	}
	shared := 0
	for _, r := range pvrs.Trans {
		h, ok := hand[r.Name]
		if !ok {
			continue
		}
		shared++
		if got, want := restRoot(pvrs, r), restRoot(vvrs, h); !slices.Equal(got, want) {
			t.Errorf("%s: P2V derives root writes %v, the hand-coded rule declares %v", r.Name, got, want)
		}
	}
	if shared != 17 {
		t.Errorf("%d trans_rules in both rule sets, want 17", shared)
	}
}

// keepsAt renders a trans_rule's Keeps by pattern position — each entry
// as the right-side node's pre-order index, then the left-side node's —
// so rule sets that name their descriptors differently compare.
func keepsAt(r *volcano.TransRule) []string {
	at := func(p *core.PatNode, desc string) int {
		i, found := 0, -1
		var walk func(n *core.PatNode)
		walk = func(n *core.PatNode) {
			if n.Desc == desc && found < 0 {
				found = i
			}
			i++
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(p)
		return found
	}
	var out []string
	for _, k := range r.Keeps {
		out = append(out, fmt.Sprintf("%d<-%d", at(r.RHS, k.RHS), at(r.LHS, k.LHS)))
	}
	return out
}

// operators counts a pattern's operator nodes.
func operators(p *core.PatNode) int {
	if p.IsVar() {
		return 0
	}
	n := 1
	for _, k := range p.Kids {
		n += operators(k)
	}
	return n
}

// TestRuleFlagsAgree: the flags P2V puts on the generated trans_rules —
// normalizing as the specification declares, an involution as derived
// from the rule — and the right-side nodes it derives keep left-side
// identities are the hand-coded rule set's declarations, rule by rule:
// the MAT push rules normalize, join_commute is an involution, and every
// rule but join_assoc, select_split, select_merge, select_into_ret and
// join_to_mat keeps an identity on every right-side node.
func TestRuleFlagsAgree(t *testing.T) {
	_, pvrs, _ := prairiePath(t, 2, 101, false)
	_, vvrs := volcanoPath(t, 2, 101, false)
	hand := map[string]*volcano.TransRule{}
	for _, r := range vvrs.Trans {
		hand[r.Name] = r
	}
	var normalize, involution, keepNone []string
	for _, r := range pvrs.Trans {
		h := hand[r.Name]
		if h == nil || h.Normalize != r.Normalize || h.Involution != r.Involution {
			t.Errorf("%s: P2V gives normalize=%v involution=%v, the hand-coded rule %+v", r.Name, r.Normalize, r.Involution, h)
			continue
		}
		if p, v := keepsAt(r), keepsAt(h); !slices.Equal(p, v) {
			t.Errorf("%s: P2V derives keeps %v (%v), the hand-coded rule declares %v (%v)", r.Name, r.Keeps, p, h.Keeps, v)
		}
		if len(r.Keeps) == 0 {
			keepNone = append(keepNone, r.Name)
		} else if len(r.Keeps) != operators(r.RHS) {
			t.Errorf("%s keeps %v, not every right-side node", r.Name, r.Keeps)
		}
		if r.Normalize {
			normalize = append(normalize, r.Name)
		}
		if r.Involution {
			involution = append(involution, r.Name)
		}
	}
	if !slices.Equal(normalize, []string{"mat_push_join_left", "mat_push_join_right"}) || !slices.Equal(involution, []string{"join_commute"}) {
		t.Errorf("normalizing %v, involutions %v", normalize, involution)
	}
	if !slices.Equal(keepNone, []string{"join_assoc", "select_split", "select_merge", "select_into_ret", "join_to_mat"}) {
		t.Errorf("rules keeping no identity: %v", keepNone)
	}
}

// TestNormalizingInvolutionRejected: a rule that is its own inverse has
// no fixpoint to normalize to, so a specification declaring join_commute
// normalizing is refused, by an error naming the rule.
func TestNormalizingInvolutionRejected(t *testing.T) {
	o := oodb.New(qgen.Catalog(2, 101, false))
	rs, err := prairielang.ParseAndCompileAll([]string{oodb.Spec, "normalize join_commute;"}, o.HelperImpls())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2v.Translate(rs); err == nil || !strings.Contains(err.Error(), "trans_rule join_commute is normalizing and its own inverse") {
		t.Errorf("Translate: %v", err)
	}
}

func optimizeWith(t *testing.T, o *oodb.Opt, vrs *volcano.RuleSet, rep *p2v.Report, e qgen.ExprKind, n int) (*core.Expr, *volcano.Optimizer) {
	t.Helper()
	tree, err := qgen.Build(o, e, n)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(o.Alg.Props)
	if rep != nil {
		tree, req, err = rep.PrepareQuery(tree, req)
		if err != nil {
			t.Fatal(err)
		}
	}
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(tree, req)
	if err != nil {
		t.Fatalf("%v n=%d: %v", e, n, err)
	}
	return plan, opt
}

// TestPrairieMatchesVolcano is the repository's acid test (§4.3): for
// every expression family, both optimizers find plans of equal cost and
// explore identical numbers of equivalence classes.
func TestPrairieMatchesVolcano(t *testing.T) {
	for _, q := range qgen.Queries() {
		n := 3
		if q.Expr.HasSelect() {
			n = 2 // E3/E4 spaces grow steeply; keep the test fast
		}
		t.Run(q.Name, func(t *testing.T) {
			po, pvrs, rep := prairiePath(t, n, 101, q.Indexed)
			pplan, popt := optimizeWith(t, po, pvrs, rep, q.Expr, n)
			vo, vvrs := volcanoPath(t, n, 101, q.Indexed)
			vplan, vopt := optimizeWith(t, vo, vvrs, nil, q.Expr, n)

			pc := pplan.Cost(pvrs.Class)
			vc := vplan.Cost(vvrs.Class)
			if math.Abs(pc-vc) > 1e-9*math.Max(pc, vc) {
				t.Errorf("winner costs differ: prairie=%g volcano=%g\nprairie: %s\nvolcano: %s",
					pc, vc, pplan, vplan)
			}
			if popt.Stats.Groups != vopt.Stats.Groups {
				t.Errorf("equivalence classes differ: prairie=%d volcano=%d",
					popt.Stats.Groups, vopt.Stats.Groups)
			}
			if popt.Stats.Exprs != vopt.Stats.Exprs {
				t.Errorf("expressions differ: prairie=%d volcano=%d",
					popt.Stats.Exprs, vopt.Stats.Exprs)
			}
		})
	}
}

func TestSelectionPushdownWins(t *testing.T) {
	// With selective predicates, the winner must not evaluate the whole
	// join before selecting: some Filter/Index_scan work should sit
	// below the top join, or selections were merged into RETs.
	o, vrs, rep := prairiePath(t, 2, 101, true)
	plan, _ := optimizeWith(t, o, vrs, rep, qgen.E3, 2)
	s := plan.String()
	if strings.HasPrefix(s, "Filter(Hash_join") {
		t.Errorf("selection not pushed: %s", s)
	}
}

func TestPointerJoinVsMaterialize(t *testing.T) {
	// Both MAT implementations must be considered; whichever wins, the
	// plan contains one of them for E2.
	o, vrs, rep := prairiePath(t, 2, 101, false)
	plan, opt := optimizeWith(t, o, vrs, rep, qgen.E2, 2)
	algs := strings.Join(plan.Algorithms(), ",")
	if !strings.Contains(algs, "Materialize") && !strings.Contains(algs, "Pointer_join") {
		t.Errorf("no MAT algorithm in plan %s", plan)
	}
	if opt.Stats.ImplMatched["mat_materialize"] == 0 || opt.Stats.ImplMatched["mat_pointer_join"] == 0 {
		t.Error("both MAT implementations should be considered")
	}
}

func TestJoinToMatFires(t *testing.T) {
	// An explicit join on a pointer attribute (C1.ref = S1.id) collapses
	// to MAT via join_to_mat, enabling pointer-based plans.
	o := oodb.New(qgen.Catalog(1, 101, false))
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		t.Fatal(err)
	}
	// Build JOIN(RET(C1), RET(S1)) on C1.ref = S1.id by hand.
	mk := func(name string) *core.Expr {
		cl := o.Cat.MustClass(name)
		d := o.Alg.NewDesc()
		d.Set(o.AT, cl.AttrSet())
		d.SetFloat(o.NR, cl.Card)
		d.SetFloat(o.TS, cl.TupleSize)
		d.Set(o.IX, cl.IndexSet())
		d.Set(o.C, core.Cost(0))
		leaf := core.NewLeaf(name, d)
		rd := d.Clone()
		rd.Unset(o.IX)
		rd.Set(o.SP, core.TruePred)
		return core.NewNode(o.RET, rd, leaf)
	}
	l, r := mk("C1"), mk("S1")
	jd := o.Alg.NewDesc()
	pred := core.EqAttr(core.A("C1", "ref"), core.A("S1", "id"))
	jd.Set(o.JP, pred)
	jd.Set(o.AT, l.D.AttrList(o.AT).Union(r.D.AttrList(o.AT)))
	jd.SetFloat(o.NR, o.Cat.JoinCard(l.D.Float(o.NR), r.D.Float(o.NR), pred))
	jd.SetFloat(o.TS, l.D.Float(o.TS)+r.D.Float(o.TS))
	tree := core.NewNode(o.JOIN, jd, l, r)

	tree2, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(vrs)
	if _, err := opt.Optimize(tree2, req); err != nil {
		t.Fatal(err)
	}
	if opt.Stats.TransFired["join_to_mat"] == 0 {
		t.Errorf("join_to_mat never fired; trans fired: %v", opt.Stats.TransFired)
	}
}

// TestGroupGrowthByFamily checks Figure 14's qualitative shape: for the
// same N, equivalence classes grow from E1 to E2 and dramatically for
// the SELECT families.
func TestGroupGrowthByFamily(t *testing.T) {
	groups := map[qgen.ExprKind]int{}
	for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
		o, vrs, rep := prairiePath(t, 3, 101, false)
		_, opt := optimizeWith(t, o, vrs, rep, e, 3)
		groups[e] = opt.Stats.Groups
	}
	// Per-class MAT placement (E2) and per-class SELECT placement (E3)
	// generate isomorphic spaces — identical group counts — while the
	// combination E4 explodes (the paper's E3/E4 memory exhaustion).
	if !(groups[qgen.E1] < groups[qgen.E2] && groups[qgen.E2] <= groups[qgen.E3] && groups[qgen.E3] < groups[qgen.E4]) {
		t.Errorf("group growth not monotone across families: %v", groups)
	}
	if groups[qgen.E4] < 4*groups[qgen.E2] {
		t.Errorf("E4 should explode relative to E2: %v", groups)
	}
}

// TestRuleMatchCounts records the Table 5 analogue: distinct trans and
// impl rules fired per query. The shape must be monotone within a family
// and indices must only add index rules.
func TestRuleMatchCounts(t *testing.T) {
	fired := map[string][2]int{}
	for _, q := range qgen.Queries() {
		n := 3
		if q.Expr.HasSelect() {
			n = 2
		}
		o, vrs, rep := prairiePath(t, n, 101, q.Indexed)
		_, opt := optimizeWith(t, o, vrs, rep, q.Expr, n)
		tf := 0
		for _, v := range opt.Stats.TransFired {
			if v > 0 {
				tf++
			}
		}
		fired[q.Name] = [2]int{tf, opt.Stats.DistinctImplFired()}
	}
	// Q1 fires exactly File_scan + Hash_join; Q2 adds the index sweep.
	if fired["Q1"][1] != 2 {
		t.Errorf("Q1 impl fired = %d, want 2", fired["Q1"][1])
	}
	if fired["Q2"][1] != 3 {
		t.Errorf("Q2 impl fired = %d, want 3", fired["Q2"][1])
	}
	// E2 adds the two MAT implementations.
	if fired["Q3"][1] != 4 {
		t.Errorf("Q3 impl fired = %d, want 4", fired["Q3"][1])
	}
	// Index effect: indexed variants fire at least as many rules.
	for _, pair := range [][2]string{{"Q1", "Q2"}, {"Q3", "Q4"}, {"Q5", "Q6"}, {"Q7", "Q8"}} {
		if fired[pair[1]][1] < fired[pair[0]][1] {
			t.Errorf("index removed impl rules: %s=%v %s=%v",
				pair[0], fired[pair[0]], pair[1], fired[pair[1]])
		}
		if fired[pair[1]][0] < fired[pair[0]][0] {
			t.Errorf("index removed trans rules: %s=%v %s=%v",
				pair[0], fired[pair[0]], pair[1], fired[pair[1]])
		}
	}
	// Family growth: E4 fires the most trans rules.
	if !(fired["Q7"][0] > fired["Q5"][0] && fired["Q5"][0] > fired["Q1"][0]) {
		t.Errorf("trans fired not growing across families: %v", fired)
	}
}

// TestPlansExecuteCorrectly is the semantics acid test: winner plans
// from both specification paths are executed against synthetic data and
// compared with a naive evaluation of the logical query.
func TestPlansExecuteCorrectly(t *testing.T) {
	// Small cardinalities keep selections non-empty and naive joins fast.
	smallCat := func(indexed bool) *catalog.Catalog {
		return catalog.Generate(catalog.GenOptions{
			NumClasses: 2, Seed: 77, Indexed: indexed,
			MinCardExp: 5, MaxCardExp: 6, Refs: true,
		})
	}
	for _, q := range qgen.Queries() {
		n := 2
		t.Run(q.Name, func(t *testing.T) {
			po := oodb.New(smallCat(q.Indexed))
			pvrs, rep, err := p2v.Translate(po.PrairieRules())
			if err != nil {
				t.Fatal(err)
			}
			db := data.Populate(po.Cat, 9, 64)
			naive := &exec.Naive{DB: db, P: exec.Props{
				Ord: po.Ord, JP: po.JP, SP: po.SP, PA: po.PA, MA: po.MA, UA: po.UA,
			}}
			logical, err := qgen.Build(po, q.Expr, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Eval(logical)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("workload produced an empty result; tests need data flowing")
			}

			run := func(o *oodb.Opt, plan *core.Expr) *exec.Result {
				t.Helper()
				comp := exec.NewCompiler(db, exec.Props{
					Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
				})
				it, err := comp.Compile(plan)
				if err != nil {
					t.Fatalf("compile %s: %v", plan, err)
				}
				res, err := exec.Run(it)
				if err != nil {
					t.Fatalf("run %s: %v", plan, err)
				}
				return res
			}

			pplan, _ := optimizeWith(t, po, pvrs, rep, q.Expr, n)
			if got := run(po, pplan); !exec.SameBag(want, got) {
				t.Errorf("prairie plan %s: %d rows, want %d", pplan, len(got.Rows), len(want.Rows))
			}
			vo := oodb.New(smallCat(q.Indexed))
			vvrs := vo.VolcanoRules()
			vplan, _ := optimizeWith(t, vo, vvrs, nil, q.Expr, n)
			if got := run(vo, vplan); !exec.SameBag(want, got) {
				t.Errorf("volcano plan %s: %d rows, want %d", vplan, len(got.Rows), len(want.Rows))
			}
		})
	}
}

// TestUnnestOptimizesAndExecutes covers the UNNEST operator end to end:
// UNNEST(MAT(RET(C1))) optimizes (via unnest_mat_commute and Flatten)
// and the winner computes the same bag as the naive evaluation.
func TestUnnestOptimizesAndExecutes(t *testing.T) {
	o, vrs, rep := prairiePath(t, 1, 101, false)
	ret, err := qgen.Build(o, qgen.E2, 1) // MAT(RET(C1))
	if err != nil {
		t.Fatal(err)
	}
	ua := core.Attrs{core.A("C1", "tags")}
	ud := o.Alg.NewDesc()
	ud.Set(o.UA, ua)
	ud.Set(o.AT, ret.D.AttrList(o.AT))
	ud.SetFloat(o.NR, 4*ret.D.Float(o.NR))
	ud.SetFloat(o.TS, ret.D.Float(o.TS))
	tree := core.NewNode(o.UNNEST, ud, ret)

	tree2, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(tree2, req)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.TransMatched["unnest_mat_commute"] == 0 {
		t.Error("unnest_mat_commute never matched")
	}
	if !strings.Contains(strings.Join(plan.Algorithms(), ","), "Flatten") {
		t.Errorf("no Flatten in plan %s", plan)
	}
	db := data.Populate(o.Cat, 9, 32)
	props := exec.Props{Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA}
	naive := &exec.Naive{DB: db, P: props}
	want, err := naive.Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	comp := exec.NewCompiler(db, props)
	it, err := comp.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(it)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.SameBag(want, got) {
		t.Errorf("UNNEST plan result differs: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
}

// TestStarGraphSearchSpace: star query graphs (the paper's future work)
// admit more join orders than linear chains — every subset containing
// the hub is connected — so the search space is strictly larger.
func TestStarGraphSearchSpace(t *testing.T) {
	run := func(g qgen.Graph) int {
		o, vrs, rep := prairiePath(t, 4, 101, false)
		tree, err := qgen.BuildGraph(o, qgen.E1, 4, g)
		if err != nil {
			t.Fatal(err)
		}
		tree, req, err := rep.PrepareQuery(tree, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := volcano.NewOptimizer(vrs)
		if _, err := opt.Optimize(tree, req); err != nil {
			t.Fatal(err)
		}
		return opt.Stats.Groups
	}
	linear, star := run(qgen.Linear), run(qgen.Star)
	if star <= linear {
		t.Errorf("star groups (%d) should exceed linear groups (%d)", star, linear)
	}
}

// TestJoinAssociatesOnGeneratedQueries is the property test of the
// allocation-free is_assoc: every (lower, upper, l, m, r) the searches of
// the query families present to it — E1–E4, linear and star graphs, every
// width the tests search — gets the answer the construction it replaced
// gives (oodb.JoinAssociatesByConstruction).
func TestJoinAssociatesOnGeneratedQueries(t *testing.T) {
	maxN := map[qgen.ExprKind]int{qgen.E1: 6, qgen.E2: 5, qgen.E3: 4, qgen.E4: 3}
	o := oodb.New(qgen.Catalog(6, 101, false))
	impls := o.HelperImpls()
	isAssoc, calls, yes := impls["is_assoc"], 0, 0
	impls["is_assoc"] = func(a []core.Value) (core.Value, error) {
		got, err := isAssoc(a)
		want := oodb.JoinAssociatesByConstruction(a[0].(*core.Pred), a[1].(*core.Pred), a[2].(core.Attrs), a[3].(core.Attrs), a[4].(core.Attrs))
		if calls++; want {
			yes++
		}
		if err != nil || got != core.Bool(want) {
			t.Errorf("is_assoc(%v) = %v (%v), by construction %v", a, got, err, want)
		}
		return got, err
	}
	rs, err := prairielang.ParseAndCompile(oodb.Spec, impls)
	if err != nil {
		t.Fatal(err)
	}
	o.Rebind(rs.Algebra)
	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		t.Fatal(err)
	}
	for e, max := range maxN {
		for _, g := range []qgen.Graph{qgen.Linear, qgen.Star} {
			for n := 2; n <= max; n++ {
				tree, err := qgen.BuildGraph(o, e, n, g)
				if err != nil {
					t.Fatal(err)
				}
				tree, req, err := rep.PrepareQuery(tree, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := volcano.NewOptimizer(vrs).Optimize(tree, req); err != nil {
					t.Fatalf("%v n=%d graph %v: %v", e, n, g, err)
				}
			}
		}
	}
	if calls < 1000 || yes == 0 || yes == calls {
		t.Errorf("%d is_assoc calls, %d true: too few, or one-sided, to be a test", calls, yes)
	}
	t.Logf("%d is_assoc calls compared, %d true", calls, yes)
}
