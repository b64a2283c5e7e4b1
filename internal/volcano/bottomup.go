package volcano

import (
	"prairie/internal/core"
)

// BottomUp is the alternative search strategy §2.2 of the paper alludes
// to: "Given an appropriate search engine, Prairie can potentially also
// be used with a bottom-up optimization strategy". It consumes the same
// RuleSet (hand-coded or P2V-generated) and produces the same winners as
// the top-down engine, but with System R-style control flow:
//
//  1. the memo is expanded to the transformation fixpoint (shared with
//     the top-down engine);
//  2. a cheap top-down *discovery* pass collects each equivalence
//     class's interesting property vectors (System R's "interesting
//     orders"): the root requirement plus every input requirement any
//     implementation rule of any parent can generate;
//  3. winners are computed bottom-up by dynamic programming: groups in
//     dependency order, each group's whole interesting-vector table at
//     once, enforcer entries after their relaxed base entries.
//
// Because discovery enumerates exactly the requirements the top-down
// engine would issue, both strategies produce equal-cost winners; the
// engines differ in traversal order and in how much of the winner table
// they materialize (bottom-up computes every interesting vector for
// every group, top-down only what the search touches).
type BottomUp struct {
	RS    *RuleSet
	Memo  *Memo
	Stats *Stats
	Opts  Options
}

// NewBottomUp returns a bottom-up optimizer over a fresh memo.
func NewBottomUp(rs *RuleSet) *BottomUp {
	return &BottomUp{RS: rs, Memo: NewMemo(rs), Stats: NewStats()}
}

// vecEntry is one discovered (group, property vector) pair.
type vecEntry struct {
	group GroupID
	req   *core.Descriptor
	// relaxedFrom marks entries produced by enforcer relaxation; their
	// base entry must be computed first within the group.
	enforced bool
}

// Optimize maps an initialized operator tree to its cheapest plan under
// req's physical properties, bottom-up.
func (o *BottomUp) Optimize(tree *core.Expr, req *core.Descriptor) (*PExpr, error) {
	return o.plan(tree, req, true)
}

// GreedyPlan is the cheap baseline the budgeted search degrades to: it
// plans tree without any exploration. The memo holds exactly the query's
// own operator tree (no transformation rule ever fires), and winners are
// computed bottom-up over that single shape — discovery and dynamic
// programming as usual, minus phase 0. Cost is linear-ish in the tree
// size, so it always terminates quickly and, whenever the original
// shape is implementable under req, always returns a plan; when it is
// not, the typed ErrGreedyNoPlan is returned (never a nil plan with a
// nil error), so callers can distinguish "greedy cannot cover this
// shape" from a failed search.
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
// interrupted run's diagnostics).
func greedyPlan(rs *RuleSet, tree *core.Expr, req *core.Descriptor, stats *Stats) (*PExpr, error) {
	bu := &BottomUp{RS: rs, Memo: NewMemo(rs), Stats: stats}
	return bu.plan(tree, req, false)
}

// plan drives the three bottom-up phases; explore selects whether phase
// 0 (memo expansion to the transformation fixpoint) runs at all.
func (o *BottomUp) plan(tree *core.Expr, req *core.Descriptor, explore bool) (*PExpr, error) {
	o.Stats.ensureMaps()
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	root := o.Memo.Insert(tree)
	// Phase 0: shared exploration.
	td := &Optimizer{RS: o.RS, Memo: o.Memo, Stats: o.Stats, Opts: o.Opts}
	if explore {
		if err := td.explore(); err != nil {
			td.recordMemoStats()
			return nil, err
		}
	}
	root = o.Memo.Find(root)

	// Phase 1: discovery of interesting property vectors.
	vectors := o.discover(root, req)

	// Phase 2: dynamic programming in dependency order.
	order, err := o.topoOrder(root)
	if err != nil {
		td.recordMemoStats()
		return nil, err
	}
	for _, g := range order {
		o.costGroup(g, vectors[g], td)
	}

	td.recordMemoStats()
	plan, _, err := td.findBest(root, req) // table hit: everything is memoized
	if err != nil {
		return nil, err
	}
	if plan == nil {
		if !explore {
			// Without exploration the only candidate shape was the
			// original tree; no implementation rule covered it.
			return nil, ErrGreedyNoPlan
		}
		return nil, ErrNoPlan
	}
	return plan, nil
}

// discover walks the memo from the root, collecting the property
// vectors each group can be asked for. It runs implementation-rule Pre
// hooks (the get_input_pv analogue) against representative descriptors
// to enumerate input requirements, and enforcer Pre hooks for
// relaxations; no costing happens.
func (o *BottomUp) discover(root GroupID, rootReq *core.Descriptor) map[GroupID][]vecEntry {
	phys := o.RS.Class.Phys
	vectors := map[GroupID][]vecEntry{}
	seen := map[GroupID]map[uint64]bool{}
	empty := core.NewDescriptor(o.RS.Algebra.Props)

	var add func(g GroupID, req *core.Descriptor, enforced bool)
	add = func(g GroupID, req *core.Descriptor, enforced bool) {
		g = o.Memo.Find(g)
		key := req.HashOn(phys)
		if seen[g] == nil {
			seen[g] = map[uint64]bool{}
		}
		if seen[g][key] {
			return
		}
		seen[g][key] = true
		vectors[g] = append(vectors[g], vecEntry{group: g, req: req.Clone(), enforced: enforced})
		grp := o.Memo.groups[g]
		// Enforcer relaxations stay within the group.
		for _, enf := range o.RS.Enforcers {
			cx := &ImplCtx{OpDesc: mergeReq(grp.Rep(), req, phys), Req: req}
			if !enforcerApplies(enf, cx) {
				continue
			}
			_, inReq := enf.Pre(cx)
			if !inReq.EqualOn(req, phys) {
				add(g, inReq, true)
			}
		}
		// Implementation rules generate the input requirements.
		for _, e := range grp.Exprs {
			if e.IsLeaf() {
				continue
			}
			for _, rule := range o.RS.Impls {
				if rule.Op != e.Op {
					continue
				}
				cx := &ImplCtx{
					OpDesc: mergeReq(e.D, req, phys),
					Req:    req,
					Kids:   make([]*core.Descriptor, len(e.Kids)),
					In:     make([]*core.Descriptor, len(e.Kids)),
				}
				for i, k := range e.Kids {
					cx.Kids[i] = o.Memo.Group(k).Rep()
				}
				if rule.Cond != nil && !rule.Cond(cx) {
					continue
				}
				_, inReq := rule.Pre(cx)
				for i, k := range e.Kids {
					r := empty
					if i < len(inReq) && inReq[i] != nil {
						r = inReq[i]
					}
					add(k, r, false)
				}
			}
		}
	}
	add(root, rootReq, false)
	add(root, empty, false)
	return vectors
}

// topoOrder returns the groups reachable from root with every group
// after all groups its expressions consume (leaves first).
func (o *BottomUp) topoOrder(root GroupID) ([]GroupID, error) {
	var order []GroupID
	state := map[GroupID]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(g GroupID) error
	visit = func(g GroupID) error {
		g = o.Memo.Find(g)
		switch state[g] {
		case 2:
			return nil
		case 1:
			// A cyclic memo cannot be costed bottom-up; the rule sets in
			// this repository never create one.
			return errCyclicMemo
		}
		state[g] = 1
		for _, e := range o.Memo.groups[g].Exprs {
			for _, k := range e.Kids {
				if err := visit(k); err != nil {
					return err
				}
			}
		}
		state[g] = 2
		order = append(order, g)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return order, nil
}

var errCyclicMemo = errorString("volcano: cyclic memo; bottom-up strategy requires a DAG")

type errorString string

func (e errorString) Error() string { return string(e) }

// costGroup fills the group's winner table for its interesting vectors.
// Non-enforced vectors are computed first so enforcer entries find their
// relaxed bases; the shared findBest supplies the per-alternative logic
// and hits only completed tables below.
func (o *BottomUp) costGroup(g GroupID, vecs []vecEntry, td *Optimizer) {
	for pass := 0; pass < 2; pass++ {
		for _, v := range vecs {
			if (pass == 0) == v.enforced {
				continue
			}
			// findBest memoizes into the same winner table the final
			// lookup reads; kid groups are already complete, so no deep
			// recursion happens (enforcer relaxations recurse within the
			// group onto pass-0 entries).
			_, _, _ = td.findBest(v.group, v.req)
		}
	}
}

// enforcerApplies mirrors Optimizer.enforcerApplies for the discovery
// pass.
func enforcerApplies(enf *Enforcer, cx *ImplCtx) bool {
	if enf.Cond != nil {
		return enf.Cond(cx)
	}
	for _, p := range enf.Props {
		if cx.Req.Has(p) && !cx.Req.Get(p).IsDontCare() {
			return true
		}
	}
	return false
}

// TableSize reports how many winner entries the DP materialized — the
// bottom-up strategy's footprint, compared against top-down's
// on-demand table in the strategy ablation.
func (o *BottomUp) TableSize() int {
	n := 0
	for _, g := range o.Memo.Groups() {
		for _, entries := range g.winners {
			n += len(entries)
		}
	}
	return n
}
