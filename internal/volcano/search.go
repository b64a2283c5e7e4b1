package volcano

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
)

// ErrNoPlan is returned when no access plan satisfies the requested
// physical properties.
var ErrNoPlan = errors.New("volcano: no feasible access plan")

// errBudget is the internal interrupt signal: exploration or costing hit
// the run's Budget or its context was cancelled. It never escapes
// OptimizeContext — the degrade path turns it into a plan.
var errBudget = errors.New("volcano: budget interrupted")

// Options tunes the optimizer.
type Options struct {
	// Budget bounds search effort: exceeding it makes the optimizer
	// return a degraded plan rather than an error. A zero Budget sets no
	// clock and only the DefaultMaxExprs guard.
	Budget Budget
	// Obs attaches observability sinks (metrics, spans, per-rule
	// timing); nil — the default — disables all instrumentation behind
	// single-branch guards, leaving plans and stats byte-identical to
	// unobserved releases.
	Obs *obs.Observer
	// Cache attaches a cross-query plan cache: structurally equivalent
	// queries (same fingerprint, requirement, budget class, rule-set
	// scope) skip the search entirely and concurrent misses collapse to
	// one search. nil — the default — leaves plans, stats, and errors
	// byte-identical to a cacheless build.
	Cache *PlanCache
}

// DefaultMaxExprs is the expression cap of a Budget that sets none: the
// reproduction's stand-in for the paper's virtual-memory wall.
const DefaultMaxExprs = 4_000_000

// maxExprsGuard is the cap a zero Budget.MaxExprs means; tests lower it.
var maxExprsGuard = DefaultMaxExprs

// maxRepairRounds bounds the explorer's repair rounds (a Rehash after
// merges); a search still at work past it is reported as diverging.
var maxRepairRounds = 10_000

// Optimizer drives a Volcano-style top-down optimization: it expands the
// memo to the transformation fixpoint, then computes the cheapest access
// plan per (equivalence class, required physical properties) with
// memoized winners and branch-and-bound pruning.
//
// An Optimizer is not safe for concurrent use; run one per goroutine
// (they may share a RuleSet, a PlanCache and an Observer). OptimizeContext
// is the engine's only entry point: concurrency, repetition and timing
// belong to the caller.
type Optimizer struct {
	RS    *RuleSet
	Memo  *Memo
	Stats *Stats
	Opts  Options
	// OnEvent, when set, receives a trace of rule firings, costed and
	// rejected alternatives, enforcer applications, and winners.
	OnEvent func(Event)
	// Rendering is the rendering slot of the cache entry that stands
	// behind the plan the last OptimizeContext returned — the entry a hit
	// or a shared flight was served from, or this run published; nil when no entry does (no cache, a degraded or failed
	// run). See Rendering.
	Rendering *Rendering

	// fire is the firing state reused by every rule application, and
	// match the matcher that fills it (exploration is single-threaded);
	// the first rule application makes both, a cache hit neither.
	fire  *firing
	match *matcher
	// noReq is the empty requirement handed to inputs no rule constrains.
	noReq *core.Descriptor
	// tally, clock and run are the current search's ledger (ledger.go):
	// the per-rule counts and times by rule position, which the hot loops
	// bump without hashing a rule name, the stopwatch that charges the
	// times, and the budget accounting (budget.go).
	tally []ruleTally
	clock stopwatch
	run   budgetState
	// frames[:depth] are the costing frames of the optimizeGroup calls in
	// progress (see costFrame).
	frames []*costFrame
	depth  int
	// costUpTo is the newest insertion stamp optimizeGroup costs: every
	// member (beginRun sets it to the largest stamp), or, while the
	// fallback runs, the seed's (see planSeed).
	costUpTo uint64
}

// NewOptimizer returns an optimizer over a fresh memo.
func NewOptimizer(rs *RuleSet) *Optimizer {
	return &Optimizer{RS: rs, Memo: NewMemo(rs), Stats: &Stats{}}
}

// Optimize maps an initialized operator tree to its cheapest access plan
// that satisfies req's physical properties (req may be nil for "no
// requirement"). It returns the winning plan; Stats describe the search.
func (o *Optimizer) Optimize(tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	return o.OptimizeContext(context.Background(), tree, req)
}

// OptimizeContext is Optimize governed by a cancellation context and the
// options' Budget. When the search exceeds the budget or ctx is
// cancelled, the optimizer degrades gracefully instead of failing: it
// salvages the best plan costable from the already-explored memo, or —
// when no complete winner exists, or on hard cancellation — plans the
// query's seed in the same memo (planSeed). Degraded results
// are marked in Stats (Degraded, DegradeCause, DegradePath). A
// background context and a zero Budget leave only the DefaultMaxExprs
// guard, which degrades the same way.
func (o *Optimizer) OptimizeContext(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	if ob := o.Opts.Obs; ob.Enabled() {
		// The observed wrapper lives outside the search proper: the clock
		// and the metric flush bracket the run.
		start := time.Now()
		plan, err := o.dispatchOptimize(ctx, tree, req)
		recordRun(ob, o.RS, o.Stats, time.Since(start), err)
		return plan, err
	}
	return o.dispatchOptimize(ctx, tree, req)
}

// dispatchOptimize routes cached requests through the plan cache; the
// cacheless path is a direct call.
func (o *Optimizer) dispatchOptimize(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	o.Rendering = nil
	if o.Opts.Cache != nil {
		return o.cachedOptimize(ctx, tree, req)
	}
	return o.optimizeContext(ctx, tree, req)
}

func (o *Optimizer) optimizeContext(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	o.beginRun(ctx)
	defer o.endRun()
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	// The memo starts from the normalized tree: the seed, the
	// expressions stamped up to the memo's stamp after Insert.
	norm, err := o.normalize(tree)
	if err != nil {
		return nil, err
	}
	root := o.Memo.Insert(norm)
	seed := o.Memo.seq
	if err := o.explore(); err != nil {
		if errors.Is(err, errBudget) {
			return o.degrade(root, seed, req)
		}
		return nil, err
	}
	plan, _, err := o.findBest(root, req)
	if err != nil {
		if errors.Is(err, errBudget) {
			return o.degrade(root, seed, req)
		}
		return nil, err
	}
	if plan == nil {
		return nil, ErrNoPlan
	}
	return plan, nil
}

// degrade turns a budget interrupt into a plan. The memo is first
// brought to a consistent state (eager dedup may be pending), then the
// salvage pass costs the explored contents; if that yields no complete
// winner — or the run was hard-cancelled, where salvaging the memo
// would prolong the search the caller asked to stop — the seed (the
// expressions up to stamp seed) is planned in the same memo.
func (o *Optimizer) degrade(root GroupID, seed uint64, req *core.Descriptor) (*core.Expr, error) {
	o.Stats.Degraded = true
	o.Stats.DegradeCause = o.run.cause
	if o.Memo.Dirty() {
		o.Memo.Rehash()
	}
	if o.run.cause != CauseCancelled {
		// Salvage is held to the context alone: the bound that tripped
		// no longer applies.
		r := &o.run
		r.cause, r.timed, r.active = CauseNone, false, r.ctx.Done() != nil
		plan, _, err := o.findBest(root, req)
		if err != nil && !errors.Is(err, errBudget) {
			return nil, err
		}
		if err == nil && plan != nil {
			o.Stats.DegradePath = DegradePathMemo
			return plan, nil
		}
	}
	plan, err := o.planSeed(root, seed, req)
	if err != nil {
		return nil, fmt.Errorf("volcano: degraded search (%s) found no fallback plan: %w",
			o.Stats.DegradeCause, err)
	}
	o.Stats.DegradePath = DegradePathGreedy
	return plan, nil
}

// explore expands the memo to the transformation closure of the query
// with duplicate elimination — the constraint-driven expansion of the
// search space. Memo insertion is monotone, so any order of rule
// applications reaches the same closure; the worklist touches only
// expressions whose binding sets can actually have grown. Duplicate
// elimination runs eagerly — as soon as a merge dirties the index — so
// duplicates collapse before stale index lookups can cascade them into
// further spurious groups and merges; Stats.Passes counts 1 plus the
// repair rounds.
func (o *Optimizer) explore() error {
	m := o.Memo
	x := &explorer{o: o, m: m}
	x.seed()
	m.explorer = x
	defer func() {
		m.explorer = nil
		o.charge(idle) // the last rule's time ends with exploration
	}()
	o.Stats.Passes = 1
	return x.run()
}

// explorer is the dependency-driven worklist state. The memo calls it
// while exploration runs, so memo growth feeds the worklist directly: a
// new expression is enqueued itself and re-enqueues the parents of the
// group it joined (the memo's parent lists are the back edges along
// which change propagates); the parents of merged groups are woken
// after Rehash.
type explorer struct {
	o *Optimizer
	m *Memo
	// levels holds the pending expressions by the depth of their group
	// when pushed, and pop takes the oldest of the deepest level: inputs
	// first, Volcano's explore-the-input-before-matching-into-it recursion
	// laid flat. A firing's new interior group is thus closed — and found
	// equal to whatever the memo already held — before any parent is built
	// on it, instead of merging under a finished tower. Depth has no bound
	// (a rule whose right side nests can chain), so the levels grow.
	levels []level
	// levels[deep:] are empty; pending counts the entries of all levels,
	// dead ones included.
	deep, pending int
	// merged accumulates surviving canonical group ids of merges since
	// the last Rehash; afterRehash wakes their parents.
	merged []GroupID
}

// level is the FIFO of one depth; head indexes the next entry (the slice
// is reused, not popped).
type level struct {
	q    []*LExpr
	head int
}

func (x *explorer) push(e *LExpr) {
	if e.dead || e.queued || e.IsLeaf() {
		return
	}
	e.queued = true
	d := x.m.Group(e.group).depth
	for len(x.levels) <= d {
		x.levels = append(x.levels, level{})
	}
	x.levels[d].q = x.m.appendList(x.levels[d].q, e)
	x.deep = max(x.deep, d+1)
	if x.pending++; x.pending > x.o.Stats.MaxQueue {
		x.o.Stats.MaxQueue = x.pending
	}
}

// peek returns the expression pop would, leaving it pending; dead entries
// in front of it are discarded.
func (x *explorer) peek() *LExpr {
	for ; x.deep > 0; x.deep-- {
		l := &x.levels[x.deep-1]
		for ; l.head < len(l.q); l.head++ {
			e := l.q[l.head]
			if !e.dead {
				return e
			}
			e.queued = false
			x.pending--
		}
		l.q, l.head = l.q[:0], 0
	}
	return nil
}

func (x *explorer) pop() *LExpr {
	e := x.peek()
	if e != nil {
		x.levels[x.deep-1].head++
		x.pending--
		e.queued = false
	}
	return e
}

// seed loads the initial memo (the inserted query tree) into the
// worklist; the memo's calls take over from there.
func (x *explorer) seed() {
	for _, g := range x.m.Groups() {
		for _, e := range g.Exprs {
			x.push(e)
		}
	}
}

// exprAdded fires on new expressions: the expression itself
// may root new bindings, and the group it joined is a new input
// alternative for every parent expression.
func (x *explorer) exprAdded(e *LExpr) {
	x.push(e)
	for _, p := range x.m.parentsOf(x.m.Find(e.group)) {
		x.push(p)
	}
}

// groupsMerged fires after a merge: the union made each side's
// expressions newly visible to the other side's parents. The memo
// restamped the loser's — the smaller side — so the winner's parents
// re-match only the bindings that contain one of them; the winner's
// expressions keep their stamps (every other filter over them stays
// valid), so the loser's parents re-enumerate in full instead, from
// horizons reset here. Waking either side's parents is deferred to
// afterRehash: until the repair has run, duplicates the merge implies
// are still alive and further merges may be pending.
func (x *explorer) groupsMerged(winner GroupID, loserParents []*LExpr) {
	x.merged = append(x.merged, winner)
	for _, p := range loserParents {
		x.resetDeepHorizons(p)
	}
}

// afterRehash wakes the parents of every group that survived a merge.
func (x *explorer) afterRehash() {
	for _, gid := range x.merged {
		for _, p := range x.m.parentsOf(x.m.Find(gid)) {
			x.push(p)
		}
	}
	x.merged = x.merged[:0]
}

// resetDeepHorizons forces full re-enumeration of p's deep rules on its
// next visit. Shallow rules stay done: their bindings reference input
// groups wholesale and are unaffected by group contents.
func (x *explorer) resetDeepHorizons(p *LExpr) {
	if p.ruleSince == nil {
		return
	}
	for i, te := range x.o.RS.transFor(p.Op) {
		if !te.shallow {
			p.ruleSince[i] = 0
		}
	}
}

// anyKidNewer reports whether any direct input group of e gained an
// expression — inserted, or moved in by a merge — at or after since: the
// cheap gate deciding whether a deep rule can possibly find a new binding
// (grand-kid growth alone never retriggers, which is why RuleSet.Validate
// holds rule patterns to maxTransDepth).
func (x *explorer) anyKidNewer(e *LExpr, since uint64) bool {
	for _, k := range e.Kids {
		if x.m.Group(k).maxSeq >= since {
			return true
		}
	}
	return false
}

// process applies every transformation rule exploration tries at e's
// operator, enumerating only bindings not seen at the previous visit; an
// involution is not applied to an expression it built.
func (x *explorer) process(e *LExpr) error {
	o, m := x.o, x.m
	entries := o.RS.transFor(e.Op)
	if len(entries) == 0 {
		return nil
	}
	if e.ruleSince == nil {
		e.ruleSince = core.Take(&m.horizonArena, len(entries), horizonChunk)
	}
	for i := range entries {
		te := &entries[i]
		if te.shallow {
			// A depth-1 pattern binds e and whole input groups; its
			// binding set never grows, so one application suffices.
			if e.ruleSince[i] != 0 {
				continue
			}
			e.ruleSince[i] = 1
			if te.rule.Involution && e.via == te.rule.Name {
				continue // it would rebuild the expression it was applied to
			}
			o.applyTrans(te, e, 0)
		} else {
			since := e.ruleSince[i]
			if since != 0 && e.seq < since && !x.anyKidNewer(e, since) {
				continue
			}
			// Expressions inserted by this very application stamp at or
			// above the horizon, so self-induced growth is re-examined
			// on the next visit (the insertion hook re-enqueues e). The
			// horizon is set first: a merge the application raises may
			// reset it.
			e.ruleSince[i] = m.seq + 1
			o.applyTrans(te, e, since)
		}
		if o.overExprs() || o.overBudget() {
			return errBudget
		}
	}
	return nil
}

// run drains the worklist — and repairs the memo whenever a merge has
// dirtied it — until no live expression is pending.
func (x *explorer) run() error {
	o, m := x.o, x.m
	for {
		if o.overBudget() {
			return errBudget
		}
		e := x.pop()
		if e != nil {
			if err := x.process(e); err != nil {
				return err
			}
		}
		if m.Dirty() {
			m.Rehash()
			x.afterRehash()
			o.Stats.Passes++
			if o.Stats.Passes > maxRepairRounds && x.peek() != nil {
				return fmt.Errorf("volcano: exploration did not converge in %d passes", maxRepairRounds)
			}
		}
		if e == nil && x.peek() == nil {
			return nil
		}
	}
}

// applyTrans fires one transformation rule on one expression for every
// binding involving at least one expression stamped at or after since
// (0 enumerates everything). One binding, laid out by the rule's frame, serves all applications: the
// matcher overwrites its LHS slots match by match (shared read-only with
// the memo), and each firing starts by taking back the RHS descriptors
// the previous firing's actions created. The rule's tally row counts the
// matches and firings, and the stopwatch runs for it until the next rule
// starts.
func (o *Optimizer) applyTrans(te *transEntry, e *LExpr, since uint64) {
	m, rule, f := o.Memo, te.rule, o.firing()
	t := o.start(te.row)
	m.curRule = rule.Name
	b := f.b
	b.Reset(te.frame)
	f.vars = f.vars[:0]
	o.match.start(m, te.lhs, e, f, since, e.seq >= since)
	for o.match.next() {
		if !o.match.fresh() {
			continue
		}
		t.matched++
		b.BeginFiring()
		if rule.Cond != nil && !rule.Cond(b) {
			continue
		}
		t.fired++
		if o.OnEvent != nil {
			o.emit(EventTransFired, rule.Name, m.Find(e.group), e.String(), 0)
		}
		if rule.Appl != nil {
			rule.Appl(b)
		}
		f.rest, f.restRoot = rule.Rest, rule.RestRoot
		interned, merges := m.interned, m.merges
		m.buildRHS(te.rhs, f, m.Find(e.group))
		if m.interned != interned || m.merges != merges {
			t.new++
		}
	}
	m.curRule = ""
}

// findBest computes (memoized) the cheapest plan for group g that
// satisfies the required physical properties.
func (o *Optimizer) findBest(g GroupID, req *core.Descriptor) (*core.Expr, float64, error) {
	if o.overBudget() {
		return nil, 0, errBudget
	}
	m := o.Memo
	g = m.Find(g)
	grp := m.groups[g]
	phys := o.RS.Class.Phys
	key := req.HashOn(phys)
	for w := grp.winners; w != nil; w = w.next {
		if w.key == key && w.req.EqualOn(req, phys) {
			if w.inProgress {
				return nil, 0, fmt.Errorf("volcano: cyclic optimization of group %d", g)
			}
			return w.plan, w.cost, nil
		}
	}
	w := &core.Take(&m.winnerArena, 1, winnerChunk)[0]
	w.req, w.key, w.inProgress, w.cost = m.descs.Clone(req), key, true, math.Inf(1)
	w.next, grp.winners = grp.winners, w
	o.Stats.Winners++

	// The group's alternatives charge the stopwatch to their rules; it
	// goes back to the caller's on return, so an impl rule's time is its
	// own, its inputs' excluded.
	caller := o.clock.row
	best, bestCost, err := o.optimizeGroup(grp, req)
	o.charge(caller)
	w.inProgress = false
	if err != nil {
		// Drop the half-computed entry rather than memoizing it:
		// recording "no plan" for a budget-interrupted computation would
		// poison the salvage pass that costs this memo next.
		for p := &grp.winners; *p != nil; p = &(*p).next {
			if *p == w {
				*p = w.next
				break
			}
		}
		return nil, 0, err
	}
	w.plan, w.cost = best, bestCost
	if best != nil && o.OnEvent != nil {
		o.emit(EventWinner, "", g, reqString(req, o.RS.Class.Phys)+" -> "+best.String(), bestCost)
	}
	return best, bestCost, nil
}

// costFrame is the scratch optimizeGroup costs alternatives in, one per
// recursion depth, so the recursion into input groups, a frame down,
// overwrites nothing an alternative still needs. Every alternative at a
// depth reuses the context, its slices, the merged OpDesc (mergeReq) and
// the binding the context lends. An alternative that beats the incumbent
// is copied into the frame (keep); the group's winner is built from the
// last one kept, once, when the group is done (plan).
type costFrame struct {
	cx              ImplCtx
	kids, in, inReq []*core.Descriptor // back cx.Kids, cx.In and cx.InReq
	plans           []*core.Expr       // the alternative's input winners
	merged          *core.Descriptor

	// best is the incumbent, copied in: an algorithm's descriptor is
	// bestD, the frame's own, a stored file's the leaf's; Kids is the
	// frame's copy of its input winners.
	best  core.Expr
	bestD *core.Descriptor
}

// newCostFrame makes a frame whose slices hold the rule set's widest
// alternative: an operator of the largest arity, or an enforcer's one
// input.
func (rs *RuleSet) newCostFrame() *costFrame {
	n, ps := max(rs.index().arity, 1), rs.Algebra.Props
	ds := make([]*core.Descriptor, 3*n)
	return &costFrame{
		cx:   ImplCtx{lent: rs.newBinding()},
		kids: ds[:n:n], in: ds[n : 2*n : 2*n], inReq: ds[2*n:],
		plans:  make([]*core.Expr, n),
		merged: core.NewDescriptor(ps), bestD: core.NewDescriptor(ps),
	}
}

// reset readies the frame's context for one alternative with n inputs,
// whose hooks borrow a binding laid out by frame.
func (f *costFrame) reset(opDesc, req *core.Descriptor, n int, frame *core.Frame) *ImplCtx {
	f.cx.lent.Reset(frame)
	f.cx = ImplCtx{OpDesc: opDesc, Req: req, Kids: f.kids[:n], In: f.in[:n], InReq: f.inReq[:n], lent: f.cx.lent}
	clear(f.cx.In)
	clear(f.cx.InReq)
	return &f.cx
}

// keep makes an alternative that beats the incumbent the new incumbent,
// copying its descriptor and input winners into the frame.
func (f *costFrame) keep(alg *core.Operation, d *core.Descriptor, kids []*core.Expr) {
	f.bestD.CopyFrom(d)
	f.bestD.Name = d.Name
	f.best = core.Expr{Op: alg, D: f.bestD, Kids: append(f.best.Kids[:0], kids...)}
}

// keepLeaf makes a stored file the incumbent.
func (f *costFrame) keepLeaf(e *LExpr) {
	f.best = core.Expr{File: e.File, D: e.D, Kids: f.best.Kids[:0]}
}

// plan builds the incumbent's plan node. The node owns its descriptor and
// input slice, so nothing it holds points into the frame or the memo; up
// to two inputs, node and input slice are one heap object.
func (f *costFrame) plan() *core.Expr {
	if f.best.IsLeaf() {
		return &core.Expr{File: f.best.File, D: f.best.D}
	}
	var p *core.Expr
	if kids := f.best.Kids; len(kids) <= 2 {
		b := new(struct {
			p core.Expr
			s [2]*core.Expr
		})
		b.p.Kids = b.s[:copy(b.s[:], kids)]
		p = &b.p
	} else {
		p = &core.Expr{Kids: slices.Clone(kids)}
	}
	p.Op, p.D = f.best.Op, f.bestD.Clone()
	return p
}

// optimizeGroup enumerates the group's physical alternatives.
func (o *Optimizer) optimizeGroup(grp *Group, req *core.Descriptor) (*core.Expr, float64, error) {
	if o.depth == len(o.frames) {
		o.frames = append(o.frames, o.RS.newCostFrame())
	}
	f := o.frames[o.depth]
	o.depth++
	defer func() { o.depth-- }()
	phys := o.RS.Class.Phys
	costID := o.RS.Class.Cost
	bestCost := math.Inf(1)
	// better counts a costed alternative and reports whether it beats the
	// incumbent; only one that does is built into a plan node.
	better := func(cost float64) bool {
		o.Stats.CostedPlans++
		return cost < bestCost
	}

	for _, e := range grp.Exprs {
		if e.seq > o.costUpTo {
			continue
		}
		if e.IsLeaf() {
			// A stored file satisfies a requirement only as-is; RET
			// algorithms above it decide access paths.
			if c := e.D.Float(costID); e.D.SatisfiesOn(req, phys) && better(c) {
				f.keepLeaf(e)
				bestCost = c
			}
			continue
		}
		opDesc := mergeReq(e.D, req, phys, f.merged)
		kids := f.reset(opDesc, req, len(e.Kids), nil).Kids
		for i, k := range e.Kids {
			kids[i] = o.Memo.Group(k).Rep()
		}
		for _, ie := range o.RS.implsFor(e.Op) {
			rule, t := ie.rule, o.start(ie.row)
			t.matched++
			cx := f.reset(opDesc, req, len(e.Kids), rule.Frame)
			if rule.Cond != nil && !rule.Cond(cx) {
				o.emit(EventImplRejected, rule.Name, grp.ID, "condition failed", 0)
				continue
			}
			t.fired++
			algD, inReq := rule.Pre(cx)
			acc := 0.0
			ok := true
			for i, k := range e.Kids {
				var r *core.Descriptor
				if i < len(inReq) {
					r = inReq[i]
				}
				if r == nil {
					r = o.emptyReq()
				}
				plan, cost, err := o.findBest(k, r)
				if err != nil {
					return nil, 0, err
				}
				if plan == nil {
					ok = false
					break
				}
				f.plans[i] = plan
				cx.In[i] = plan.D
				acc += cost
				// Branch and bound, on an assumption the repository's
				// TestCostsCoverInputs checks: an algorithm's cost is at
				// least the sum of its inputs' costs, so once they reach
				// the best plan's cost no completion of this one can beat
				// it.
				if acc >= bestCost {
					o.Stats.Pruned++
					ok = false
					break
				}
			}
			if !ok {
				o.emit(EventImplRejected, rule.Name, grp.ID, "infeasible or pruned input", 0)
				continue
			}
			rule.Post(cx, algD)
			if !algD.SatisfiesOn(req, phys) {
				o.emit(EventImplRejected, rule.Name, grp.ID, "required properties unsatisfied", 0)
				continue
			}
			c := algD.Float(costID)
			if o.OnEvent != nil {
				o.emit(EventImplCosted, rule.Name, grp.ID, rule.Alg.Name, c)
			}
			if better(c) {
				f.keep(rule.Alg, algD, f.plans[:len(e.Kids)])
				bestCost = c
			}
		}
	}

	// Enforcers: produce a required property on top of a plan for the
	// same group with that property relaxed.
	opDesc := mergeReq(grp.Rep(), req, phys, f.merged)
	enf0 := len(o.RS.Trans) + len(o.RS.Impls)
	for i, enf := range o.RS.Enforcers {
		cx := f.reset(opDesc, req, 0, enf.Frame)
		if !o.enforcerApplies(enf, cx) {
			continue
		}
		t := o.start(enf0 + i)
		t.matched++
		algD, inReq := enf.Pre(cx)
		if inReq == nil {
			inReq = o.emptyReq()
		}
		if inReq.EqualOn(req, phys) {
			// The enforcer did not relax anything; applying it would
			// recurse forever.
			continue
		}
		plan, _, err := o.findBest(grp.ID, inReq)
		if err != nil {
			return nil, 0, err
		}
		if plan == nil {
			continue
		}
		cx.In, f.plans[0] = append(cx.In, plan.D), plan
		enf.Post(cx, algD)
		if !algD.SatisfiesOn(req, phys) {
			continue
		}
		t.fired++
		c := algD.Float(costID)
		if o.OnEvent != nil {
			o.emit(EventEnforcerApplied, enf.Name, grp.ID, enf.Alg.Name, c)
		}
		if better(c) {
			f.keep(enf.Alg, algD, f.plans[:1])
			bestCost = c
		}
	}

	if math.IsInf(bestCost, 1) { // nothing kept
		return nil, bestCost, nil
	}
	return f.plan(), bestCost, nil
}

// emptyReq is the requirement of an input no rule constrains: one empty
// descriptor serves every such input (findBest clones what it keeps and
// nothing writes to a requirement).
func (o *Optimizer) emptyReq() *core.Descriptor {
	if o.noReq == nil {
		o.noReq = core.NewDescriptor(o.RS.Algebra.Props)
	}
	return o.noReq
}

// enforcerApplies is the one gate in front of every enforcer: some
// property it enforces is required and not DONT_CARE, and its own Cond
// holds.
func (o *Optimizer) enforcerApplies(enf *Enforcer, cx *ImplCtx) bool {
	requested := slices.ContainsFunc(enf.Props, func(p core.PropID) bool {
		return cx.Req.Has(p) && !cx.Req.Get(p).IsDontCare()
	})
	return requested && (enf.Cond == nil || enf.Cond(cx))
}

// mergeReq returns d with the explicitly-set physical properties of req
// overriding d's — the descriptor an implementation rule sees as its
// operator's (requirements flow top-down in Prairie by assigning input
// descriptors' properties, §2.4). Rule hooks treat OpDesc as read-only,
// so when req sets no physical property the result is d itself, and
// otherwise into, overwritten: the costing frame's own descriptor.
func mergeReq(d, req *core.Descriptor, phys []core.PropID, into *core.Descriptor) *core.Descriptor {
	out := d
	for _, p := range phys {
		if req.Has(p) {
			if out == d {
				out = into
				out.CopyFrom(d)
				out.Name = d.Name
			}
			out.Set(p, req.Get(p))
		}
	}
	return out
}
