package volcano

import (
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
func GreedyPlan(rs *RuleSet, tree *core.Expr, req *core.Descriptor) (*PExpr, error) {
	return greedyPlan(rs, tree, req, NewStats())
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

// greedyPlan is GreedyPlan accumulating into the caller's Stats (the
// degrade path merges the fallback's costing counters into the
// interrupted run's diagnostics). The optimizer is fresh and unbudgeted:
// the fallback of an interrupted run must itself run to the end.
func greedyPlan(rs *RuleSet, tree *core.Expr, req *core.Descriptor, stats *Stats) (*PExpr, error) {
	stats.ensureMaps()
	if req == nil {
		req = core.NewDescriptor(rs.Algebra.Props)
	}
	o := &Optimizer{RS: rs, Memo: NewMemo(rs), Stats: stats}
	o.initRuleCounters()
	defer o.flushRuleCounters()
	plan, _, err := o.findBest(o.Memo.Insert(tree), req)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, ErrGreedyNoPlan
	}
	return plan, nil
}
