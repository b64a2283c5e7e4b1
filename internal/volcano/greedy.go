package volcano

import (
	"context"

	"prairie/internal/core"
)

// GreedyPlan is the cheap baseline the budgeted search degrades to: a
// search of tree with exploration off. The memo holds exactly the
// query's own operator tree (no transformation rule ever fires) and
// findBest costs that single shape, so it always terminates quickly.
// When no implementation rule covers the shape under req it fails as a
// search does, with ErrNoPlan (never a nil plan with a nil error).
func GreedyPlan(rs *RuleSet, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	o := NewOptimizer(rs)
	o.beginRun(context.Background())
	if req == nil {
		req = core.NewDescriptor(rs.Algebra.Props)
	}
	root := o.Memo.Insert(tree)
	return o.planSeed(root, o.Memo.seq, req)
}

// planSeed is the fallback of an interrupted run, and its last costing:
// it plans root from the seed, the members stamped up to seed, on the
// run's own memo. A winner the interrupted costing completed is reused
// as it stands (a valid plan, and no costlier than the seed's); every
// other group costs its seed members only. The fallback must run to the
// end, so the checkpoints are off.
func (o *Optimizer) planSeed(root GroupID, seed uint64, req *core.Descriptor) (*core.Expr, error) {
	o.run.active, o.costUpTo = false, seed
	plan, _, err := o.findBest(root, req)
	if err == nil && plan == nil {
		err = ErrNoPlan
	}
	return plan, err
}
