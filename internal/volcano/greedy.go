package volcano

import (
	"context"

	"prairie/internal/core"
)

// GreedyPlan is the cheap baseline the budgeted search degrades to: it
// plans tree without any exploration. The memo holds exactly the query's
// own operator tree (no transformation rule ever fires) and findBest
// costs that single shape. Cost is linear-ish in the tree size, so it
// always terminates quickly and, whenever the original shape is
// implementable under req, always returns a plan; when it is not, the
// typed ErrGreedyNoPlan is returned (never a nil plan with a nil error),
// so callers can distinguish "greedy cannot cover this shape" from a
// failed search.
func GreedyPlan(rs *RuleSet, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	o := &Optimizer{RS: rs, Stats: &Stats{}}
	o.beginRun(context.Background())
	return o.greedyPlan(tree, req)
}

// ErrGreedyNoPlan is returned by GreedyPlan when no implementation rule
// covers the original tree's shape — greedy planning never transforms,
// so an unimplementable shape is a hard miss, not a search failure. It
// wraps ErrNoPlan, so errors.Is matches both.
var ErrGreedyNoPlan = errGreedyNoPlan{}

type errGreedyNoPlan struct{}

func (errGreedyNoPlan) Error() string {
	return "volcano: greedy planner: no implementation rule applies to the original tree"
}

func (errGreedyNoPlan) Unwrap() error { return ErrNoPlan }

// greedyPlan is GreedyPlan inside o's run: it plans tree on a memo of
// its own, with an optimizer that shares o's Stats, trace and tally, so
// the degrade path's fallback is counted and traced with the run it
// ends (its events name the fallback memo's groups) and the run's one
// endRun reports the interrupted memo. The planner is unbudgeted: the
// fallback of an interrupted run must itself run to the end.
func (o *Optimizer) greedyPlan(tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	g := &Optimizer{RS: o.RS, Memo: NewMemo(o.RS), Stats: o.Stats, OnEvent: o.OnEvent, tally: o.tally}
	plan, _, err := g.findBest(g.Memo.Insert(tree), req)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, ErrGreedyNoPlan
	}
	return plan, nil
}
