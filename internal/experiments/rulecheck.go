package experiments

import (
	"fmt"
	"os"
	"strconv"

	"prairie/internal/rulecheck"
)

// RuleCheck runs the per-rule differential verifier (internal/rulecheck)
// over every shipped rule set and reports the verdict table, then runs
// the mutation-testing mode and appends its kill rates. The DSL world
// compiles the example specification at opts.DSLPath (default
// examples/dslrules/rules.prairie, resolved against the working
// directory); when the file is unreadable that world is skipped with a
// note rather than failing the experiment.
func RuleCheck(opts Options) (*Table, error) {
	path := opts.DSLPath
	if path == "" {
		path = "examples/dslrules/rules.prairie"
	}
	var dslSrc string
	var notes []string
	if b, err := os.ReadFile(path); err == nil {
		dslSrc = string(b)
	} else {
		notes = append(notes, fmt.Sprintf("dsl world skipped: %v", err))
	}
	worlds, err := rulecheck.ShippedWorlds(7, dslSrc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Per-rule differential verification (internal/rulecheck)",
		Header: []string{"world", "rule", "origin", "status", "sites", "checks"},
		Extra:  map[string]float64{},
	}
	for _, w := range worlds {
		rep := rulecheck.Verify(w)
		for _, v := range rep.Verdicts {
			t.Rows = append(t.Rows, []string{
				w.Name, v.Rule, v.Origin, v.Status,
				strconv.Itoa(v.Sites), strconv.Itoa(v.Checks),
			})
		}
		verified, unexercised, counterexamples := rep.Counts()
		t.Extra["verified/"+w.Name] = float64(verified)
		if unexercised > 0 {
			t.Extra["unexercised/"+w.Name] = float64(unexercised)
		}
		if counterexamples > 0 {
			t.Extra["counterexamples/"+w.Name] = float64(counterexamples)
		}

		mrep := rulecheck.MutationTest(w)
		notes = append(notes, fmt.Sprintf(
			"%s: %d rules over %d trees; mutation: %d/%d killed (%d dropped), kill rate %.2f",
			w.Name, rep.Rules, rep.Pool, mrep.Killed, mrep.Mutants-mrep.Dropped,
			mrep.Dropped, mrep.KillRate))
		t.Extra["kill_rate/"+w.Name] = mrep.KillRate
		for _, r := range mrep.Results {
			if r.Status == rulecheck.MutantSurvived {
				notes = append(notes, fmt.Sprintf("%s: SURVIVED %s %s (%s)",
					w.Name, r.Rule, r.Kind, r.Detail))
			}
		}
	}
	t.Notes = notes
	return t, nil
}
