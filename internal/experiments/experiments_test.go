package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// fastOpts keeps experiment tests quick: one instance, one repetition,
// tiny N.
func fastOpts() Options {
	return Options{MaxClasses: 2, Repeats: 1, Seeds: []int64{101}}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"demo", "a    bb", "333", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.seeds()) != 5 {
		t.Error("default seeds should be the paper's five instances")
	}
	if o.maxClasses(qgen.E1) != 8 || o.maxClasses(qgen.E3) != 4 {
		t.Error("default class ranges wrong")
	}
	if o.repeats(1) < 1 || o.repeats(20) != 1 {
		t.Error("adaptive repeats wrong")
	}
	o.MaxClasses = 3
	if o.maxClasses(qgen.E4) != 3 {
		t.Error("MaxClasses override ignored")
	}
	o.Repeats = 7
	if o.repeats(5) != 7 {
		t.Error("Repeats override ignored")
	}
}

// TestSameSearch: complete Prairie and hand-coded searches of one point
// must agree on classes and expressions; degraded ones are not compared.
func TestSameSearch(t *testing.T) {
	p := &volcano.Stats{Groups: 20, Exprs: 50}
	if err := sameSearch("pt", p, &volcano.Stats{Groups: 20, Exprs: 50}); err != nil {
		t.Errorf("equal searches: %v", err)
	}
	for _, v := range []*volcano.Stats{{Groups: 21, Exprs: 50}, {Groups: 20, Exprs: 49}} {
		if err := sameSearch("pt", p, v); err == nil || !strings.Contains(err.Error(), "pt: searches differ") {
			t.Errorf("prairie %+v, volcano %+v: err = %v", *p, *v, err)
		}
	}
	if err := sameSearch("pt", p, &volcano.Stats{Groups: 3, Degraded: true}); err != nil {
		t.Errorf("degraded search compared: %v", err)
	}
}

func TestFigureTiming(t *testing.T) {
	for _, num := range []int{10, 12} {
		tab, err := Figure(num, fastOpts())
		if err != nil {
			t.Fatalf("Figure(%d): %v", num, err)
		}
		if len(tab.Rows) != 2 {
			t.Errorf("Figure(%d) rows = %d", num, len(tab.Rows))
		}
		// Each row has joins + 4 timings + groups.
		for _, row := range tab.Rows {
			if len(row) != 6 {
				t.Errorf("Figure(%d) row = %v", num, row)
			}
		}
	}
	if _, err := Figure(9, fastOpts()); err == nil {
		t.Error("invalid figure number accepted")
	}
}

func TestFigureExhaustion(t *testing.T) {
	opts := fastOpts()
	opts.MaxClasses = 3
	opts.MaxExprs = 10 // force exhaustion quickly
	tab, err := Figure(10, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		for _, c := range row {
			if c == "exhausted" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("expected an exhausted point:\n%s", tab)
	}
}

// TestFigureDegraded: a point the clock degrades is marked '*' and the
// sweep runs to its full length; only the expression cap ends a series.
func TestFigureDegraded(t *testing.T) {
	opts := fastOpts()
	opts.MaxClasses = 3
	opts.Timeout = time.Nanosecond
	tab, err := Figure(10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Errorf("degraded sweep stopped early: %d rows\n%s", len(tab.Rows), tab)
	}
	starred := false
	for _, row := range tab.Rows {
		for _, c := range row {
			if c == "exhausted" {
				t.Errorf("degraded sweep still reports exhaustion:\n%s", tab)
			}
			if strings.HasSuffix(c, "*") {
				starred = true
			}
		}
	}
	if !starred {
		t.Errorf("expected a '*'-marked degraded point:\n%s", tab)
	}
}

func TestFigure14(t *testing.T) {
	tab, err := Figure14(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Header) != 5 || len(tab.Rows) != 2 {
		t.Fatalf("shape = %v rows=%d", tab.Header, len(tab.Rows))
	}
	// With one join (row index 1), group counts grow monotonically
	// E1 <= E2 <= E3 <= E4 with E4 strictly largest.
	row := tab.Rows[1]
	var vals [4]int
	for i := 0; i < 4; i++ {
		v, err := strconv.Atoi(row[i+1])
		if err != nil {
			t.Fatalf("row = %v", row)
		}
		vals[i] = v
	}
	if !(vals[0] <= vals[1] && vals[1] <= vals[2] && vals[2] < vals[3]) {
		t.Errorf("group counts not growing: %v", vals)
	}
}

func TestTable5(t *testing.T) {
	tab, err := Table5(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Q1" || tab.Rows[7][0] != "Q8" {
		t.Errorf("query order wrong: %v", tab.Rows)
	}
	// Q1 fires exactly two impl rules (File_scan, Hash_join).
	if tab.Rows[0][6] != "2" {
		t.Errorf("Q1 impl_fired = %s", tab.Rows[0][6])
	}
	if tab.Rows[1][6] != "3" {
		t.Errorf("Q2 impl_fired = %s", tab.Rows[1][6])
	}
}

// TestTable5CountsTheSearchSpace: Table 5's trans_rule columns come from
// the closure pass over the finished memo, and for a rule set that
// explores every rule in full — no normalizing rule, no involution —
// that pass counts exactly the distinct rules the search itself matched
// and fired, on every row of the table.
func TestTable5CountsTheSearchSpace(t *testing.T) {
	for _, q := range qgen.Queries() {
		n := 4
		if q.Expr.HasSelect() {
			n = 3
		}
		vrs, tree, req, err := prairieQuery(q.Expr, n, 101, q.Indexed, qgen.Linear)
		if err != nil {
			t.Fatal(err)
		}
		ref := &volcano.RuleSet{Algebra: vrs.Algebra, Class: vrs.Class, Impls: vrs.Impls, Enforcers: vrs.Enforcers}
		for _, r := range vrs.Trans {
			c := *r
			c.Normalize, c.Involution = false, false
			ref.Trans = append(ref.Trans, &c)
		}
		opt := volcano.NewOptimizer(ref)
		if _, err := opt.Optimize(tree, req); err != nil {
			t.Fatal(err)
		}
		matched, fired := opt.Stats.DistinctTransMatched(), opt.Stats.DistinctTransFired()
		c, err := opt.Closure()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Matched) != matched || len(c.Fired) != fired {
			t.Errorf("%s: the closure pass counts %d/%d distinct trans_rules, the search %d/%d", q.Name, len(c.Matched), len(c.Fired), matched, fired)
		}
	}
}

func TestRuleCounts(t *testing.T) {
	tab, err := RuleCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// OODB: 22 T / 11 I => 17/9/1, and the hand-coded row matches.
	if tab.Rows[0][2] != "22" || tab.Rows[0][3] != "11" ||
		tab.Rows[0][4] != "17" || tab.Rows[0][5] != "9" || tab.Rows[0][6] != "1" {
		t.Errorf("oodb prairie row = %v", tab.Rows[0])
	}
	if tab.Rows[1][4] != "17" || tab.Rows[1][5] != "9" || tab.Rows[1][6] != "1" {
		t.Errorf("oodb hand row = %v", tab.Rows[1])
	}
	if tab.Rows[2][2] != "3" || tab.Rows[2][4] != "2" {
		t.Errorf("relational prairie row = %v", tab.Rows[2])
	}
}

func TestRelopt(t *testing.T) {
	opts := fastOpts()
	opts.MaxClasses = 3
	tab, err := Relopt(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "" || row[2] == "" {
			t.Errorf("missing timings: %v", row)
		}
	}
}

func TestStarGraphs(t *testing.T) {
	opts := fastOpts()
	opts.MaxClasses = 3
	tab, err := StarGraphs(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 2 joins, star must have at least as many groups as linear.
	lin, _ := strconv.Atoi(tab.Rows[1][1])
	star, _ := strconv.Atoi(tab.Rows[1][2])
	if star < lin {
		t.Errorf("star %d < linear %d", star, lin)
	}
}
