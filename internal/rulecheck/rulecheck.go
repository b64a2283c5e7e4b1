package rulecheck

import (
	"encoding/json"
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/volcano"
)

// A verification run executes each exercised application site over the
// databases dataSeeds generate, at most maxRows rows per table, and
// checks at most maxSites sites per rule, visited smallest tree first.
// Verification catalogs are generated small (card 16..32) so joins and
// selections produce non-empty results the oracle can distinguish.
const (
	maxRows  = 16
	maxSites = 8
)

var dataSeeds = [...]int64{101, 202}

// Verdict statuses.
const (
	StatusVerified       = "verified"
	StatusUnexercised    = "unexercised"
	StatusCounterexample = "counterexample"
)

// Verdict is the per-rule outcome of a verification run.
type Verdict struct {
	Rule   string `json:"rule"`
	Origin string `json:"origin,omitempty"`
	Status string `json:"status"`
	// Sites counts application sites where the rule's condition held;
	// Checks counts executed differential comparisons.
	Sites   int             `json:"sites"`
	Checks  int             `json:"checks"`
	Counter *Counterexample `json:"counterexample,omitempty"`
}

// Counterexample is a minimized repro of a semantics-changing rewrite:
// the query, the rewritten query, the database instance (generation seed
// and per-table row cap), and the differing result bags.
type Counterexample struct {
	Query     string `json:"query"`
	Rewritten string `json:"rewritten"`
	DataSeed  int64  `json:"data_seed"`
	Rows      int    `json:"rows"`
	// OnlyOriginal/OnlyRewritten list canonical tuples present in one
	// result but not the other (capped; TotalDiff is the full count).
	OnlyOriginal  []string `json:"only_original,omitempty"`
	OnlyRewritten []string `json:"only_rewritten,omitempty"`
	TotalDiff     int      `json:"total_diff,omitempty"`
	// Err is set when the rewritten tree failed to execute at all.
	Err string `json:"error,omitempty"`
}

// Report is the verdict table for one world.
type Report struct {
	World    string    `json:"world"`
	Rules    int       `json:"rules"`
	Pool     int       `json:"pool"`
	Verdicts []Verdict `json:"verdicts"`
}

// Counts returns the number of verified / unexercised / counterexample
// verdicts.
func (r *Report) Counts() (verified, unexercised, counterexamples int) {
	for _, v := range r.Verdicts {
		switch v.Status {
		case StatusVerified:
			verified++
		case StatusUnexercised:
			unexercised++
		case StatusCounterexample:
			counterexamples++
		}
	}
	return
}

// Ok reports whether every rule is verified.
func (r *Report) Ok() bool {
	for _, v := range r.Verdicts {
		if v.Status != StatusVerified {
			return false
		}
	}
	return true
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// verifier carries one run's derived pool and database cache.
type verifier struct {
	w    *World
	pool []*core.Expr
	dbs  map[dbKey]*data.DB
}

type dbKey struct {
	seed int64
	rows int
}

func newVerifier(w *World) *verifier {
	return &verifier{w: w, pool: derivePool(w), dbs: map[dbKey]*data.DB{}}
}

func (v *verifier) db(seed int64, rows int) *data.DB {
	k := dbKey{seed, rows}
	if d, ok := v.dbs[k]; ok {
		return d
	}
	d := data.Populate(v.w.Cat, seed, rows)
	v.dbs[k] = d
	return d
}

func (v *verifier) eval(tree *core.Expr, seed int64, rows int) (*exec.Result, error) {
	n := &exec.Naive{DB: v.db(seed, rows), P: v.w.ExecProps}
	return n.Eval(tree)
}

// checkSite differentially executes tree against rewritten over every
// data seed, returning a minimized counterexample on divergence (nil
// when the bags agree everywhere) and how many comparisons ran.
func (v *verifier) checkSite(tree, rewritten *core.Expr) (*Counterexample, int) {
	checks := 0
	for _, seed := range dataSeeds {
		orig, err := v.eval(tree, seed, maxRows)
		if err != nil {
			// The original tree must execute; a pool tree that cannot
			// is a generation bug, not a rule bug — skip it.
			continue
		}
		checks++
		rw, err := v.eval(rewritten, seed, maxRows)
		if err != nil || !exec.SameBag(orig, rw) {
			return v.minimize(tree, rewritten, seed), checks
		}
	}
	return nil, checks
}

// minimize shrinks a failing instance: it walks the row-cap ladder from
// the smallest database up and reports the first divergence (the
// original failure at maxRows guarantees the ladder ends in one).
func (v *verifier) minimize(tree, rewritten *core.Expr, seed int64) *Counterexample {
	const diffCap = 6
	for _, rows := range [...]int{2, 3, 4, 6, 8, 12, maxRows} {
		orig, err := v.eval(tree, seed, rows)
		if err != nil {
			continue
		}
		ce := &Counterexample{
			Query:     tree.String(),
			Rewritten: rewritten.String(),
			DataSeed:  seed,
			Rows:      rows,
		}
		rw, err := v.eval(rewritten, seed, rows)
		if err != nil {
			ce.Err = err.Error()
			return ce
		}
		if exec.SameBag(orig, rw) {
			continue
		}
		onlyA, onlyB := exec.DiffBags(orig, rw)
		ce.TotalDiff = len(onlyA) + len(onlyB)
		ce.OnlyOriginal = capStrings(onlyA, diffCap)
		ce.OnlyRewritten = capStrings(onlyB, diffCap)
		return ce
	}
	return &Counterexample{
		Query:     tree.String(),
		Rewritten: rewritten.String(),
		DataSeed:  seed,
		Rows:      maxRows,
		Err:       "divergence did not reproduce during minimization",
	}
}

func capStrings(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// checkRule verifies one trans_rule over the pool: every site where the
// rule fires is executed differentially until the site budget is spent
// or a counterexample is found.
func (v *verifier) checkRule(r *volcano.TransRule) (sites, checks int, counter *Counterexample) {
	for _, tree := range v.pool {
		for _, site := range v.w.RS.Sites(r, tree) {
			rewritten, ok := v.w.RS.ApplyAt(r, tree, site)
			if !ok {
				continue
			}
			sites++
			ce, n := v.checkSite(tree, rewritten)
			checks += n
			if ce != nil {
				return sites, checks, ce
			}
			if sites >= maxSites {
				return sites, checks, nil
			}
		}
	}
	return sites, checks, nil
}

// Verify runs the per-rule differential verifier over every trans_rule
// of the world's rule set and returns the verdict table.
func Verify(w *World) *Report {
	v := newVerifier(w)
	rep := &Report{World: w.Name, Rules: len(w.RS.Trans), Pool: len(v.pool)}
	for _, r := range w.RS.Trans {
		sites, checks, ce := v.checkRule(r)
		vd := Verdict{
			Rule:   r.Name,
			Origin: r.Origin,
			Sites:  sites,
			Checks: checks,
		}
		switch {
		case ce != nil:
			vd.Status = StatusCounterexample
			vd.Counter = ce
		case sites == 0 || checks == 0:
			vd.Status = StatusUnexercised
		default:
			vd.Status = StatusVerified
		}
		rep.Verdicts = append(rep.Verdicts, vd)
	}
	return rep
}

// Summary renders a one-line result per rule, for the CLI surfaces.
func (r *Report) Summary() string {
	s := fmt.Sprintf("world %s: %d rules over %d generated trees\n", r.World, r.Rules, r.Pool)
	for _, v := range r.Verdicts {
		s += fmt.Sprintf("  %-24s %-15s sites=%d checks=%d", v.Rule, v.Status, v.Sites, v.Checks)
		if v.Counter != nil {
			s += "\n    counterexample: " + v.Counter.Query + "  =>  " + v.Counter.Rewritten
		}
		s += "\n"
	}
	return s
}
