package rulecheck

import (
	"encoding/json"
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/volcano"
)

// Options tunes a verification run. The zero value is a full run with
// the defaults below.
type Options struct {
	// Rows caps generated rows per table (default 16). Verification
	// catalogs are generated small (card 16..32) so joins and
	// selections produce non-empty results the oracle can distinguish.
	Rows int
	// DataSeeds are the database instances each exercised site is
	// executed over (default 101, 202).
	DataSeeds []int64
	// MaxSites caps the exercised application sites checked per rule
	// (default 8); sites are visited smallest-tree-first.
	MaxSites int
	// Waivers documents rules that are accepted without a verified
	// verdict (rule name -> reason). A waived rule still reports its
	// factual status; Report.Ok treats it as acceptable.
	Waivers map[string]string
}

func (o Options) withDefaults() Options {
	if o.Rows == 0 {
		o.Rows = 16
	}
	if len(o.DataSeeds) == 0 {
		o.DataSeeds = []int64{101, 202}
	}
	if o.MaxSites == 0 {
		o.MaxSites = 8
	}
	return o
}

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
	Sites  int `json:"sites"`
	Checks int `json:"checks"`
	// Waiver carries the documented reason when the rule is waived.
	Waiver  string          `json:"waiver,omitempty"`
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
// verdicts (waived rules count under their factual status).
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

// Ok reports whether every rule is verified or explicitly waived.
func (r *Report) Ok() bool {
	for _, v := range r.Verdicts {
		if v.Status != StatusVerified && v.Waiver == "" {
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
	opts Options
	pool []*core.Expr
	dbs  map[dbKey]*data.DB
}

type dbKey struct {
	seed int64
	rows int
}

func newVerifier(w *World, opts Options) *verifier {
	return &verifier{
		w:    w,
		opts: opts.withDefaults(),
		pool: derivePool(w, poolLimits{}),
		dbs:  map[dbKey]*data.DB{},
	}
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
	n := &exec.Naive{DB: v.db(seed, rows), P: v.w.Props}
	return n.Eval(tree)
}

// checkSite differentially executes tree against rewritten over every
// data seed, returning a minimized counterexample on divergence (nil
// when the bags agree everywhere) and how many comparisons ran.
func (v *verifier) checkSite(tree, rewritten *core.Expr) (*Counterexample, int) {
	checks := 0
	for _, seed := range v.opts.DataSeeds {
		orig, err := v.eval(tree, seed, v.opts.Rows)
		if err != nil {
			// The original tree must execute; a pool tree that cannot
			// is a generation bug, not a rule bug — skip it.
			continue
		}
		checks++
		rw, err := v.eval(rewritten, seed, v.opts.Rows)
		if err != nil || !exec.SameBag(orig, rw) {
			return v.minimize(tree, rewritten, seed), checks
		}
	}
	return nil, checks
}

// minimize shrinks a failing instance: it walks the row-cap ladder from
// the smallest database up and reports the first divergence (the
// original failure at Options.Rows guarantees the ladder ends in one).
func (v *verifier) minimize(tree, rewritten *core.Expr, seed int64) *Counterexample {
	const diffCap = 6
	ladder := []int{2, 3, 4, 6, 8, 12}
	ladder = append(ladder, v.opts.Rows)
	for _, rows := range ladder {
		if rows > v.opts.Rows {
			continue
		}
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
		Rows:      v.opts.Rows,
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
		for _, m := range v.w.RS.TreeMatches(r, tree) {
			rewritten, ok := v.w.RS.ApplyAt(r, tree, m)
			if !ok {
				continue
			}
			sites++
			ce, n := v.checkSite(tree, rewritten)
			checks += n
			if ce != nil {
				return sites, checks, ce
			}
			if sites >= v.opts.MaxSites {
				return sites, checks, nil
			}
		}
	}
	return sites, checks, nil
}

// Verify runs the per-rule differential verifier over every trans_rule
// of the world's rule set and returns the verdict table.
func Verify(w *World, opts Options) *Report {
	v := newVerifier(w, opts)
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
		if reason, ok := v.opts.Waivers[r.Name]; ok {
			vd.Waiver = reason
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
		if v.Waiver != "" {
			s += " (waived: " + v.Waiver + ")"
		}
		if v.Counter != nil {
			s += "\n    counterexample: " + v.Counter.Query + "  =>  " + v.Counter.Rewritten
		}
		s += "\n"
	}
	return s
}
