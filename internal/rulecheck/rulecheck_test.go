package rulecheck

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

func dslSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatalf("reading example DSL spec: %v", err)
	}
	return string(src)
}

func shippedWorlds(t *testing.T) []*World {
	t.Helper()
	worlds, err := ShippedWorlds(7, dslSource(t))
	if err != nil {
		t.Fatalf("building worlds: %v", err)
	}
	return worlds
}

// TestShippedRuleSetsVerified is the rulecheck guard: every trans_rule of
// every shipped rule set must come back verified (or carry an explicit
// waiver) from the per-rule differential verifier.
func TestShippedRuleSetsVerified(t *testing.T) {
	for _, w := range shippedWorlds(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep := Verify(w)
			if !rep.Ok() {
				t.Errorf("world %s not fully verified:\n%s", w.Name, rep.Summary())
			}
			verified, unexercised, counterexamples := rep.Counts()
			t.Logf("world %s: %d verified, %d unexercised, %d counterexamples (pool %d)",
				w.Name, verified, unexercised, counterexamples, rep.Pool)
		})
	}
}

// TestEveryServedWorldIsVerified: the verifier checks one world per
// world the server serves, and each carries the served world's
// trans_rules — names and origins, in order.
func TestEveryServedWorldIsVerified(t *testing.T) {
	src := dslSource(t)
	reg, err := server.DefaultRegistry(worldN, 7, src)
	if err != nil {
		t.Fatal(err)
	}
	worlds := shippedWorlds(t)
	var names []string
	for _, w := range worlds {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, reg.Names()) {
		t.Fatalf("verified worlds %v, served worlds %v", names, reg.Names())
	}
	rules := func(rs *volcano.RuleSet) []string {
		var out []string
		for _, r := range rs.Trans {
			out = append(out, r.Name+" "+r.Origin)
		}
		return out
	}
	for _, w := range worlds {
		served, _ := reg.Lookup(w.Name)
		if got, want := rules(w.RS), rules(served.RS); !slices.Equal(got, want) {
			t.Errorf("%s: verified trans_rules %q, served %q", w.Name, got, want)
		}
	}
}

// TestVerifyReportShape checks the JSON verdict table renders and carries
// the fields downstream tooling reads.
func TestVerifyReportShape(t *testing.T) {
	worlds := shippedWorlds(t)
	rep := Verify(worlds[0])
	js, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	for _, want := range []string{`"world"`, `"rule"`, `"status"`, `"sites"`, `"checks"`} {
		if !strings.Contains(js, want) {
			t.Errorf("verdict JSON missing %s:\n%s", want, js)
		}
	}
	if len(rep.Verdicts) != len(worlds[0].RS.Trans) {
		t.Errorf("got %d verdicts for %d rules", len(rep.Verdicts), len(worlds[0].RS.Trans))
	}
}

// TestOriginPropagates checks DSL-compiled rules carry their source
// position into verdicts (hand-coded rules have empty origins).
func TestOriginPropagates(t *testing.T) {
	worlds := shippedWorlds(t)
	for _, w := range worlds {
		if w.Name != "dsl" {
			continue
		}
		rep := Verify(w)
		for _, v := range rep.Verdicts {
			if !strings.HasPrefix(v.Origin, "spec:") {
				t.Errorf("rule %s: origin %q, want spec:<pos>", v.Rule, v.Origin)
			}
		}
		return
	}
	t.Fatal("no dsl world built")
}

// TestMutationKillRate asserts the verifier catches at least 95% of
// seeded rule corruptions across all shipped worlds, and that every kill
// carries a minimized counterexample.
func TestMutationKillRate(t *testing.T) {
	var mutants, killed, dropped int
	for _, w := range shippedWorlds(t) {
		rep := MutationTest(w)
		mutants += rep.Mutants
		killed += rep.Killed
		dropped += rep.Dropped
		for _, r := range rep.Results {
			switch r.Status {
			case MutantKilled:
				if r.Counter == nil {
					t.Errorf("%s: killed mutant %s/%s has no counterexample", w.Name, r.Rule, r.Kind)
				} else if r.Counter.Err == "" && len(r.Counter.OnlyOriginal)+len(r.Counter.OnlyRewritten) == 0 {
					t.Errorf("%s: counterexample for %s/%s shows no differing tuples and no error", w.Name, r.Rule, r.Kind)
				}
			case MutantSurvived:
				t.Logf("%s: SURVIVED %s %s (%s), %d sites", w.Name, r.Rule, r.Kind, r.Detail, r.Sites)
			}
		}
		t.Logf("world %s: %d mutants, %d killed, %d dropped (rate %.2f)",
			w.Name, rep.Mutants, rep.Killed, rep.Dropped, rep.KillRate)
	}
	live := mutants - dropped
	if live == 0 {
		t.Fatal("no live mutants generated")
	}
	rate := float64(killed) / float64(live)
	if rate < 0.95 {
		t.Errorf("mutation kill rate %.2f (%d/%d), want >= 0.95", rate, killed, live)
	}
}

// TestVerdictsGolden pins what the verifier and the mutation mode read on
// every shipped world, rule by rule: a verdict row per trans_rule (world,
// rule, origin, status, sites, checks) and a row per mutant (world, rule,
// kind, detail, status, sites), against testdata/verdicts.golden. The
// guards above check only "all verified" and the kill rate; this one
// also fails when a change to how rules fire on trees moves a site count.
func TestVerdictsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# verdict\tworld\trule\torigin\tstatus\tsites\tchecks\n# mutant\tworld\trule\tkind\tdetail\tstatus\tsites\n")
	for _, w := range shippedWorlds(t) {
		for _, v := range Verify(w).Verdicts {
			fmt.Fprintf(&b, "verdict\t%s\t%s\t%s\t%s\t%d\t%d\n", w.Name, v.Rule, cmp.Or(v.Origin, "-"), v.Status, v.Sites, v.Checks)
		}
		for _, r := range MutationTest(w).Results {
			fmt.Fprintf(&b, "mutant\t%s\t%s\t%s\t%s\t%s\t%d\n", w.Name, r.Rule, r.Kind, r.Detail, r.Status, r.Sites)
		}
	}
	const golden = "testdata/verdicts.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("verdicts differ from %s; the table now reads:\n%s", golden, got)
	}
}
