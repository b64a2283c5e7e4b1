package volcano

import (
	"context"
	"errors"
	"time"
)

// Budget bounds the effort one optimization may spend, and running out of
// it always degrades: the optimizer stops exploring, salvages the best
// plan it can from the already-explored memo, and, if no complete winner
// exists, plans the query's seed — the expressions Memo.Insert built
// before any rule fired — in that same memo. The plan is marked in Stats
// (Degraded, DegradeCause, DegradePath) — production optimizers bound
// search effort and always return *a* plan rather than none.
//
// A zero Budget with a background context reads no clock and evaluates
// no checkpoint; it is still held to the DefaultMaxExprs guard, the
// stand-in for the paper's virtual-memory wall.
type Budget struct {
	// Timeout is the wall-clock bound for the whole optimization
	// (exploration plus costing); a context deadline, if earlier, wins.
	Timeout time.Duration
	// MaxExprs caps live logical expressions in the memo; zero means
	// DefaultMaxExprs.
	MaxExprs int
}

// IsZero reports whether neither bound is set.
func (b Budget) IsZero() bool {
	return b.Timeout <= 0 && b.MaxExprs <= 0
}

// Cause identifies which resource bound interrupted a search.
type Cause int

const (
	// CauseNone: the search completed within its budget.
	CauseNone Cause = iota
	// CauseCancelled: the context was cancelled.
	CauseCancelled
	// CauseDeadline: the wall-clock budget (or context deadline) passed.
	CauseDeadline
	// CauseMaxExprs: the expression budget (or the default guard) was
	// reached.
	CauseMaxExprs
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCancelled:
		return "cancelled"
	case CauseDeadline:
		return "deadline"
	case CauseMaxExprs:
		return "max-exprs"
	}
	return "unknown"
}

// How a degraded plan was produced (Stats.DegradePath).
const (
	// DegradePathMemo: a complete winner was salvaged from the
	// partially-explored memo.
	DegradePathMemo = "memo-best"
	// DegradePathGreedy: no complete winner existed, or the context was
	// cancelled; the plan is the seed's, costed in the run's memo
	// reusing any winner the interrupted costing completed — GreedyPlan's
	// plan, or a cheaper one. The wire value predates the greedy planner
	// and is kept for compatibility.
	DegradePathGreedy = "bottom-up"
)

// budgetState is the per-run resource accounting of one OptimizeContext
// call. The expression cap is checked after every rule application (one
// integer compare); the clock and the context — the expensive checks —
// only on every 64th checkpoint.
type budgetState struct {
	ctx      context.Context
	deadline time.Time
	timed    bool
	// maxExprs is the expression cap: the budget's, or the
	// DefaultMaxExprs guard.
	maxExprs int
	// active gates all checkpoints: false for unbudgeted background
	// runs, so the hot loops pay a single branch.
	active bool
	ticks  int
	cause  Cause
}

// overExprs is the expression cap's one check, made after every rule
// application on every run, budgeted or not: a run stops once the memo
// holds maxExprs expressions, whether the cap is a Budget's or the
// DefaultMaxExprs guard.
func (o *Optimizer) overExprs() bool {
	if o.Memo.NumExprs() >= o.run.maxExprs {
		o.run.cause = CauseMaxExprs
		return true
	}
	return false
}

// overBudget is the one checkpoint for time and cancellation, made
// between rule applications and at every costing step. It reports
// whether the run is out of budget, latching the first cause; the clock
// and the context are read on every 64th tick only. An unbudgeted run is
// inactive and ticks nothing.
func (o *Optimizer) overBudget() bool {
	r := &o.run
	if !r.active {
		return false
	}
	if r.cause != CauseNone {
		return true
	}
	r.ticks++
	if r.ticks&63 != 0 {
		return false
	}
	return o.overTime()
}

// ctxDone reports whether the run's context is done or past its
// deadline: the clock check can see a context's deadline pass before
// the context's own timer has fired.
func (r *budgetState) ctxDone() bool {
	if r.ctx.Err() != nil {
		return true
	}
	d, ok := r.ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// overTime runs the expensive checks: context cancellation, then the
// wall clock.
func (o *Optimizer) overTime() bool {
	r := &o.run
	if r.cause != CauseNone {
		return true
	}
	select {
	case <-r.ctx.Done():
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) {
			r.cause = CauseDeadline
		} else {
			r.cause = CauseCancelled
		}
		return true
	default:
	}
	if r.timed && !time.Now().Before(r.deadline) {
		r.cause = CauseDeadline
		return true
	}
	return false
}
