package volcano

import (
	"context"
	"errors"
	"sync"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/plancache"
)

// This file implements the tiered "anytime" planner: on a cache miss the
// engine serves a sub-millisecond greedy plan immediately, then (per
// routing policy) launches a full branch-and-bound refinement in the
// background and hot-swaps the cache entry when the better plan lands.
// First-byte plan latency becomes O(greedy) while steady-state plan
// quality stays O(branch-and-bound).
//
// Safety invariants:
//
//   - Hot-swap epoch protocol: the refiner re-checks the cache epoch
//     against the epoch embedded in its key before publishing. A
//     concurrent Invalidate bumps the epoch, so the stale plan is
//     dropped; even if the check races the bump, the Put lands under a
//     stale-epoch key that no post-invalidation lookup can ever match —
//     the check only avoids writing garbage, correctness never depends
//     on it.
//   - Singleflight refinement: the cache-miss leader is unique per key
//     (plancache flights), and Router.beginRefine additionally dedupes
//     hit-path re-spawns, so one miss spawns at most one refiner.
//   - Tier separation in one keyspace: greedy and full entries share
//     cache keys; a TierFull request treats a greedy entry as a miss
//     (AcquireIf) and its completed search upgrades the entry in place,
//     while greedy/auto requests keep hitting the fast entry meanwhile.

// TierMode selects the planning tier of one optimization. The zero
// value (TierFull) is today's single-tier behaviour, byte-identical to
// builds without tiering.
type TierMode int

const (
	// TierFull runs the complete branch-and-bound search (the default).
	TierFull TierMode = iota
	// TierGreedy serves the greedy bottom-up plan of the original tree
	// and never refines — minimum latency, no exploration.
	TierGreedy
	// TierAuto serves the greedy plan first and lets the Router decide,
	// per query shape class, whether a background full-search refinement
	// is worth spawning.
	TierAuto
)

// String renders the tier as its wire name.
func (t TierMode) String() string {
	switch t {
	case TierGreedy:
		return "greedy"
	case TierAuto:
		return "auto"
	default:
		return "full"
	}
}

// ErrGreedyNoPlan is returned by GreedyPlan (and the greedy tier) when
// no implementation rule covers the original tree's shape — greedy
// planning never transforms, so an unimplementable shape is a hard
// miss, not a search failure. It wraps ErrNoPlan, so errors.Is matches
// both.
var ErrGreedyNoPlan = errGreedyNoPlan{}

type errGreedyNoPlan struct{}

func (errGreedyNoPlan) Error() string {
	return "volcano: greedy planner: no implementation rule applies to the original tree"
}

func (errGreedyNoPlan) Unwrap() error { return ErrNoPlan }

// RefineOutcome describes how one background refinement ended; it is
// delivered to Options.OnRefine so the flight recorder can link the
// refinement back to the request that spawned it.
type RefineOutcome struct {
	// Outcome is one of RefineSwapped, RefineStale, RefineFailed, or
	// RefinePanic.
	Outcome    string
	GreedyCost float64
	FullCost   float64 // 0 when the full search failed or degraded
	Elapsed    time.Duration
}

// Refinement outcome names (RefineOutcome.Outcome).
const (
	RefineSwapped = "swapped" // full plan published over the greedy entry
	RefineStale   = "stale"   // dropped by the epoch check
	RefineFailed  = "failed"  // full search erred, degraded, or found no plan
	RefinePanic   = "panic"   // refiner goroutine recovered from a panic
)

// RouterConfig tunes the adaptive tier router. The zero value of every
// field selects a sensible default.
type RouterConfig struct {
	// MinSamples is how many greedy-vs-full cost pairs a class needs
	// before its refinement can be skipped (default 3).
	MinSamples int
	// MinBenefit is the decayed relative cost win ((greedy-full)/full)
	// below which refinement is considered not worth spawning
	// (default 0.01, i.e. 1%).
	MinBenefit float64
	// ProbeEvery forces a refinement every Nth greedy-routed decision of
	// a class so a shape that becomes refinable is rediscovered
	// (default 64).
	ProbeEvery int
	// Decay is the EWMA weight of the newest benefit sample (default
	// 0.25).
	Decay float64
	// MaxClasses caps the stats table; unseen classes beyond it are
	// routed to refinement without being tracked (default 4096).
	MaxClasses int
}

func (c RouterConfig) minSamples() int {
	if c.MinSamples > 0 {
		return c.MinSamples
	}
	return 3
}

func (c RouterConfig) minBenefit() float64 {
	if c.MinBenefit > 0 {
		return c.MinBenefit
	}
	return 0.01
}

func (c RouterConfig) probeEvery() int {
	if c.ProbeEvery > 0 {
		return c.ProbeEvery
	}
	return 64
}

func (c RouterConfig) decay() float64 {
	if c.Decay > 0 && c.Decay <= 1 {
		return c.Decay
	}
	return 0.25
}

func (c RouterConfig) maxClasses() int {
	if c.MaxClasses > 0 {
		return c.MaxClasses
	}
	return 4096
}

// classStat is the per-shape-class routing state: how many paired
// greedy/full costs were observed, the decayed relative benefit of full
// search, and how many greedy routings happened since the last probe.
type classStat struct {
	samples    int
	benefit    float64
	sinceProbe int
}

// Router is the adaptive tier policy plus the lifecycle of background
// refiners. It learns online, per query shape class, whether full
// search actually beats greedy — classes with no measured benefit are
// sent straight to greedy, skipping refinement (with periodic probes so
// a drifting class is rediscovered).
//
// A Router is safe for concurrent use and is meant to be shared by
// every optimizer of one serving surface (the server holds one per
// process). A nil *Router is valid: TierAuto then always refines.
type Router struct {
	cfg RouterConfig

	mu       sync.Mutex
	classes  map[uint64]*classStat
	refining map[plancache.Key]struct{}
	wg       sync.WaitGroup

	// Decision and refinement counters; bound to a metrics registry by
	// NewRouterObserved, standalone otherwise.
	routedGreedy *obs.Counter // decisions that skipped refinement
	routedRefine *obs.Counter // decisions that requested refinement
	refineDone   *obs.Counter // refinements that swapped their entry
	refineWins   *obs.Counter // swaps whose full plan beat the greedy cost
	refineStale  *obs.Counter // refinements dropped by the epoch check
	refineFailed *obs.Counter // refinements that erred or degraded
	refinePanics *obs.Counter // refiner goroutines recovered from panic

	// testHookBeforeSwap, when set, runs in the refiner between the
	// full search and the epoch-checked publish — tests use it to force
	// a concurrent Invalidate into the swap window.
	testHookBeforeSwap func()
}

// NewRouter returns a Router with standalone counters.
func NewRouter(cfg RouterConfig) *Router {
	return &Router{
		cfg:          cfg,
		classes:      map[uint64]*classStat{},
		refining:     map[plancache.Key]struct{}{},
		routedGreedy: &obs.Counter{},
		routedRefine: &obs.Counter{},
		refineDone:   &obs.Counter{},
		refineWins:   &obs.Counter{},
		refineStale:  &obs.Counter{},
		refineFailed: &obs.Counter{},
		refinePanics: &obs.Counter{},
	}
}

// NewRouterObserved is NewRouter with the counters registered in reg
// (prairie_tier_*), so the routing mix and refinement outcomes show up
// on /metrics. A nil reg falls back to standalone counters.
func NewRouterObserved(cfg RouterConfig, reg *obs.Registry) *Router {
	r := NewRouter(cfg)
	if reg == nil {
		return r
	}
	r.routedGreedy = reg.Counter("prairie_tier_routed_greedy_total")
	r.routedRefine = reg.Counter("prairie_tier_routed_refine_total")
	r.refineDone = reg.Counter("prairie_tier_refined_total")
	r.refineWins = reg.Counter("prairie_tier_refine_wins_total")
	r.refineStale = reg.Counter("prairie_tier_refine_stale_total")
	r.refineFailed = reg.Counter("prairie_tier_refine_failed_total")
	r.refinePanics = reg.Counter("prairie_tier_refine_panics_total")
	return r
}

// route decides whether class's next miss should spawn a refinement. A
// nil Router always refines (counters untracked).
func (r *Router) route(class uint64) bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	cs := r.classes[class]
	if cs == nil {
		if len(r.classes) >= r.cfg.maxClasses() {
			r.mu.Unlock()
			r.routedRefine.Inc()
			return true
		}
		cs = &classStat{}
		r.classes[class] = cs
	}
	refine := true
	if cs.samples >= r.cfg.minSamples() && cs.benefit < r.cfg.minBenefit() {
		cs.sinceProbe++
		if cs.sinceProbe < r.cfg.probeEvery() {
			refine = false
		} else {
			cs.sinceProbe = 0
		}
	}
	r.mu.Unlock()
	if refine {
		r.routedRefine.Inc()
	} else {
		r.routedGreedy.Inc()
	}
	return refine
}

// observe records one paired measurement: the greedy plan's cost and
// the full search's cost for the same query. Benefit is the relative
// cost win of full search, folded in with EWMA decay.
func (r *Router) observe(class uint64, greedyCost, fullCost float64) {
	if r == nil || fullCost <= 0 {
		return
	}
	sample := (greedyCost - fullCost) / fullCost
	if sample < 0 {
		sample = 0
	}
	r.mu.Lock()
	cs := r.classes[class]
	if cs == nil {
		if len(r.classes) >= r.cfg.maxClasses() {
			r.mu.Unlock()
			return
		}
		cs = &classStat{}
		r.classes[class] = cs
	}
	if cs.samples == 0 {
		cs.benefit = sample
	} else {
		d := r.cfg.decay()
		cs.benefit = (1-d)*cs.benefit + d*sample
	}
	cs.samples++
	r.mu.Unlock()
}

// beginRefine claims the right to refine key; false means a refiner is
// already in flight for it (hit-path re-spawn dedup — miss leaders are
// already unique via plancache flights, but a greedy entry can be hit
// by many auto requests before its refinement lands).
func (r *Router) beginRefine(key plancache.Key) bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, busy := r.refining[key]; busy {
		return false
	}
	r.refining[key] = struct{}{}
	return true
}

// ClassState reports a shape class's routing statistics — paired
// samples seen and the decayed relative benefit of full search — for
// diagnostics; ok is false for classes the router has never tracked.
// The flight recorder snapshots it at decision time.
func (r *Router) ClassState(class uint64) (samples int, benefit float64, ok bool) {
	if r == nil {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.classes[class]
	if cs == nil {
		return 0, 0, false
	}
	return cs.samples, cs.benefit, true
}

func (r *Router) endRefine(key plancache.Key) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.refining, key)
	r.mu.Unlock()
}

// Wait blocks until every background refinement spawned so far has
// finished — the deterministic synchronization point for tests and
// benches (production callers never need it; refiners are fire-and-
// forget).
func (r *Router) Wait() {
	if r == nil {
		return
	}
	r.wg.Wait()
}

// RouterStats is a point-in-time snapshot of the router's counters.
type RouterStats struct {
	Classes      int   // tracked shape classes
	RoutedGreedy int64 // decisions that skipped refinement
	RoutedRefine int64 // decisions that requested refinement
	Refined      int64 // refinements that swapped their cache entry
	RefineWins   int64 // swaps whose full plan was strictly cheaper
	RefineStale  int64 // refinements dropped by the epoch check
	RefineFailed int64 // refinements that erred or degraded
}

// Snapshot returns the current counters.
func (r *Router) Snapshot() RouterStats {
	if r == nil {
		return RouterStats{}
	}
	r.mu.Lock()
	n := len(r.classes)
	r.mu.Unlock()
	return RouterStats{
		Classes:      n,
		RoutedGreedy: r.routedGreedy.Value(),
		RoutedRefine: r.routedRefine.Value(),
		Refined:      r.refineDone.Value(),
		RefineWins:   r.refineWins.Value(),
		RefineStale:  r.refineStale.Value(),
		RefineFailed: r.refineFailed.Value(),
	}
}

// shapeClass hashes the operator shape of a query — operators and
// arities, not leaf names or descriptor contents — so structurally
// similar queries over different catalogs pool their routing
// statistics. Coarser than the cache fingerprint by design: the router
// learns "is full search worth it for this kind of query", which
// generalizes across concrete tables; the cache answers "is this exact
// search problem already solved", which must not.
func (rs *RuleSet) shapeClass(e *core.Expr) uint64 {
	var walk func(e *core.Expr, h uint64) uint64
	walk = func(e *core.Expr, h uint64) uint64 {
		if e.IsLeaf() {
			return core.HashCombine(h, 0x1eaf)
		}
		h = core.HashCombine(h, uint64(e.Op.Index()))
		h = core.HashCombine(h, uint64(len(e.Kids)))
		for _, k := range e.Kids {
			h = walk(k, h)
		}
		return h
	}
	return walk(e, 0x7ead)
}

// tieredOptimize is the dispatch target for TierGreedy and TierAuto
// (TierFull never reaches it — dispatchOptimize keeps the untiered
// path intact). Cacheless operation degenerates to synchronous
// planning: greedy for TierGreedy, router-directed greedy-or-full for
// TierAuto (both costs measured so the router still learns).
func (o *Optimizer) tieredOptimize(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*PExpr, error) {
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	if !o.Opts.Cache.Enabled() {
		return o.tieredUncached(ctx, tree, req)
	}
	pc := o.Opts.Cache
	rt := o.Opts.Router
	if rt == nil {
		// A nil router means "always refine" (see Router), but the
		// refiner lifecycle still needs a WaitGroup and counters, so a
		// private per-run router stands in.
		rt = NewRouter(RouterConfig{})
		o.Opts.Router = rt
	}
	ph := o.Opts.Phases
	var phStart time.Time
	if ph != nil {
		phStart = time.Now()
	}
	key := o.rootKey(tree, req)
	a := pc.c.Acquire(key)
	if a.Hit {
		o.Stats.CacheHits++
		plan := o.cacheHit(a.Value)
		if ph != nil {
			ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
		}
		// Self-healing: an auto request hitting a greedy entry whose
		// refinement never landed (failed, stale, or router-skipped
		// earlier) may re-spawn it per current policy.
		if o.Opts.Tier == TierAuto && a.Value.tier == TierGreedy && !a.Value.refined {
			class := o.RS.shapeClass(tree)
			o.Stats.TierClass = class
			if rt.route(class) {
				o.Stats.TierRouted = "refine"
				if rt.beginRefine(key) {
					o.spawnRefine(key, class, tree, req, a.Value.cost)
				}
			} else {
				o.Stats.TierRouted = "greedy"
			}
		}
		return plan, nil
	}
	if !a.Leader {
		o.Stats.FlightWaits++
		cp, ok, err := a.Wait(ctx)
		if ph != nil {
			// The flight wait is cache time: the request was parked
			// behind a concurrent identical search.
			ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
		}
		if err == nil && ok {
			// Adopt whatever the leader shared — a greedy fast-path plan
			// is exactly what this tier asked for, and a full plan is
			// strictly better.
			o.Stats.FlightShared++
			o.Stats.CacheHits++
			return o.cacheHit(cp), nil
		}
		// Leader declined to share or our wait was cancelled: answer
		// independently at this tier without publishing.
		o.Stats.CacheMisses++
		plan, _, err := o.greedyTier(tree, req)
		if err != nil && o.Opts.Tier == TierAuto {
			return o.optimizeContext(ctx, tree, req)
		}
		return plan, err
	}

	// Miss leader: serve the greedy plan now, publish it for followers,
	// and (per policy) refine in the background.
	o.Stats.CacheMisses++
	if ph != nil {
		ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
	}
	// A panicking rule hook must not wedge followers: the deferred
	// no-share Complete is idempotent, so the success path below wins
	// when it runs first.
	defer a.Complete(cachedPlan{}, false)
	plan, cost, gerr := o.greedyTier(tree, req)
	if gerr != nil {
		if o.Opts.Tier == TierGreedy {
			a.Complete(cachedPlan{}, false)
			return nil, gerr
		}
		// Auto tier: the original shape has no greedy implementation;
		// fall back to a synchronous full search so the request is still
		// answered (and cached when clean).
		full, err := o.optimizeContext(ctx, tree, req)
		if err != nil || full == nil || o.Stats.Degraded {
			a.Complete(cachedPlan{}, false)
			return full, err
		}
		a.Complete(o.publishable(full), true)
		return full, nil
	}
	entry := o.publishable(plan)
	entry.tier = TierGreedy
	a.Complete(entry, true)
	refine := o.Opts.Tier == TierAuto
	var class uint64
	if refine {
		class = o.RS.shapeClass(tree)
		refine = rt.route(class)
		o.Stats.TierClass = class
		o.Stats.TierRouted = routedName(refine)
	}
	if refine && rt.beginRefine(key) {
		o.spawnRefine(key, class, tree, req, cost)
	}
	return plan, nil
}

// routedName renders a routing decision for Stats.TierRouted.
func routedName(refine bool) string {
	if refine {
		return "refine"
	}
	return "greedy"
}

// tieredUncached answers a tiered request without a cache: synchronous,
// nothing to hot-swap. TierAuto still consults (and teaches) the
// router — the greedy plan is cheap enough to cost alongside a routed
// full search.
func (o *Optimizer) tieredUncached(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*PExpr, error) {
	if o.Opts.Tier == TierGreedy {
		plan, _, err := o.greedyTier(tree, req)
		return plan, err
	}
	rt := o.Opts.Router
	class := o.RS.shapeClass(tree)
	refine := rt.route(class)
	o.Stats.TierClass = class
	o.Stats.TierRouted = routedName(refine)
	if !refine {
		plan, _, err := o.greedyTier(tree, req)
		if err == nil {
			return plan, nil
		}
		// Greedy cannot implement the shape; full search still can.
	}
	gCost, gOK := 0.0, false
	if g, err := greedyPlan(o.RS, tree.Clone(), req, NewStats()); err == nil {
		gCost, gOK = g.Cost(o.RS.Class), true
	}
	plan, err := o.optimizeContext(ctx, tree, req)
	if err != nil || plan == nil {
		return plan, err
	}
	if gOK && !o.Stats.Degraded {
		fCost := plan.Cost(o.RS.Class)
		rt.observe(class, gCost, fCost)
		o.Stats.GreedyCost, o.Stats.FullCost = gCost, fCost
	}
	return plan, nil
}

// greedyTier runs the greedy bottom-up planner into this run's Stats
// and marks the result's tier.
func (o *Optimizer) greedyTier(tree *core.Expr, req *core.Descriptor) (*PExpr, float64, error) {
	ph := o.Opts.Phases
	var began time.Time
	if ph != nil {
		began = time.Now()
	}
	plan, err := greedyPlan(o.RS, tree, req, o.Stats)
	if ph != nil {
		ph.Observe(obs.PhaseGreedy, began, time.Since(began))
	}
	if err != nil {
		return nil, 0, err
	}
	o.Stats.Tier = TierGreedy.String()
	cost := plan.Cost(o.RS.Class)
	o.Stats.GreedyCost = cost
	return plan, cost, nil
}

// spawnRefine launches the background full-search refinement of key.
// The refiner is a fresh TierFull optimizer — no cache, no router, no
// warm-start seeds — so its winner is byte-identical to a cold full
// optimization of the same query. On clean completion it hot-swaps the
// cache entry (epoch-checked, see the file comment) and teaches the
// router the measured greedy-vs-full benefit. Degraded or failed
// refinements never swap. Callers must hold the beginRefine claim.
func (o *Optimizer) spawnRefine(key plancache.Key, class uint64, tree *core.Expr, req *core.Descriptor, greedyCost float64) {
	rt, pc, rs := o.Opts.Router, o.Opts.Cache, o.RS
	opts := o.Opts
	opts.Tier = TierFull
	opts.Cache = nil
	opts.Router = nil
	// The refiner reports through the spawning request's observability
	// hooks, not through its own run: the phase clock and callback are
	// captured here and cleared from the refiner's options, so the inner
	// full search doesn't log its PhaseFull span into the request's
	// timeline — the whole refinement shows up as one PhaseRefine span.
	phases, onRefine := opts.Phases, opts.OnRefine
	opts.Phases = nil
	opts.OnRefine = nil
	tree = tree.Clone()
	req = req.Clone()
	rt.wg.Add(1)
	go func() {
		began := time.Now()
		out := RefineOutcome{Outcome: RefineFailed, GreedyCost: greedyCost}
		defer rt.wg.Done()
		defer rt.endRefine(key)
		defer func() {
			if p := recover(); p != nil {
				rt.refinePanics.Inc()
				out.Outcome = RefinePanic
			}
			out.Elapsed = time.Since(began)
			phases.Observe(obs.PhaseRefine, began, out.Elapsed)
			if onRefine != nil {
				onRefine(out)
			}
		}()
		ref := NewOptimizer(rs)
		ref.Opts = opts
		plan, err := ref.OptimizeContext(context.Background(), tree, req)
		if err != nil || plan == nil || ref.Stats.Degraded {
			rt.refineFailed.Inc()
			return
		}
		fullCost := plan.Cost(rs.Class)
		out.FullCost = fullCost
		rt.observe(class, greedyCost, fullCost)
		if hook := rt.testHookBeforeSwap; hook != nil {
			hook()
		}
		if pc.c.Epoch() != key.Epoch {
			rt.refineStale.Inc()
			out.Outcome = RefineStale
			return
		}
		entry := ref.publishable(plan)
		entry.refined, entry.greedyCost = true, greedyCost
		pc.c.Put(key, entry)
		rt.refineDone.Inc()
		out.Outcome = RefineSwapped
		if fullCost < greedyCost {
			rt.refineWins.Inc()
		}
	}()
}

// ParseTier maps a wire tier name to a TierMode; "" means TierFull.
func ParseTier(s string) (TierMode, error) {
	switch s {
	case "", "full":
		return TierFull, nil
	case "greedy":
		return TierGreedy, nil
	case "auto":
		return TierAuto, nil
	}
	return TierFull, errors.New("volcano: unknown tier " + `"` + s + `" (want "full", "greedy", or "auto")`)
}
