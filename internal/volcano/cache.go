package volcano

import (
	"context"
	"fmt"
	"sync"

	"prairie/internal/core"
	"prairie/internal/plancache"
)

// PlanCache is the engine-facing handle of the cross-query plan cache:
// extracted winner plans keyed by canonical query fingerprint, required
// physical properties, budget class, rule-set scope, and cache epoch,
// with singleflight collapsing of concurrent misses (see
// internal/plancache for the storage layer). When full it evicts the
// plan that is cheapest to search again, weighted by its uses: each
// entry weighs the trans_rule firings plus costed plans of the cold
// search that produced it (cachedPlan.Weight).
//
// One PlanCache may be shared by any number of concurrent optimizers. A
// nil *PlanCache is the disabled cache: it leaves the engine
// byte-identical to a cacheless build.
type PlanCache struct {
	c *plancache.Cache[cachedPlan]
}

// NewPlanCache returns a cache holding up to capacity plans, or nil —
// no cache — when capacity <= 0.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{c: plancache.New[cachedPlan](capacity)}
}

// Capacity returns the configured plan budget (0 when disabled).
func (pc *PlanCache) Capacity() int {
	if pc == nil {
		return 0
	}
	return pc.c.Capacity()
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	return pc.c.Len()
}

// Invalidate starts a new cache generation and drops every cached plan;
// call it when the catalog backing the rule set changes in place. (A
// freshly built RuleSet needs no invalidation — every instance has its
// own scope.) It returns the new epoch.
func (pc *PlanCache) Invalidate() uint64 {
	if pc == nil {
		return 0
	}
	return pc.c.Invalidate()
}

// Epoch returns the current cache generation without the counter scan
// of Snapshot (the flight recorder stamps it on every request).
func (pc *PlanCache) Epoch() uint64 {
	if pc == nil {
		return 0
	}
	return pc.c.Epoch()
}

// Snapshot returns the cache's counters.
func (pc *PlanCache) Snapshot() plancache.Stats {
	if pc == nil {
		return plancache.Stats{}
	}
	return pc.c.Snapshot()
}

// String renders a one-line summary for interactive inspection.
func (pc *PlanCache) String() string {
	if pc == nil {
		return "plancache: disabled"
	}
	s := pc.Snapshot()
	return fmt.Sprintf(
		"plancache: %d/%d entries, epoch %d; hits=%d misses=%d puts=%d evictions=%d flight waits=%d shared=%d",
		s.Entries, pc.Capacity(), s.Epoch, s.Hits, s.Misses, s.Puts,
		s.Evictions, s.FlightWaits, s.FlightShared)
}

// Rendering is a cache entry's once-filled slot for a caller-defined
// rendering of its plan (the server keeps the plan's response bytes
// here). It is opaque to this package — wire imports volcano, so the
// engine cannot know the encoding. An entry is immutable and every
// (re-)insert builds a new one through publishable, so a rendering can
// never outlive the plan it was made from.
type Rendering struct {
	once sync.Once
	v    any
}

// Do returns the entry's rendering, calling fill for the first caller
// only; concurrent callers wait for that one fill. A nil *Rendering —
// a plan no cache entry stands behind — calls fill every time.
func (r *Rendering) Do(fill func() any) any {
	if r == nil {
		return fill()
	}
	r.once.Do(func() { r.v = fill() })
	return r.v
}

// cachedPlan is one cache entry: the winner plan detached from any memo,
// its cost, and the memo-shape statistics of the cold run that produced
// it. Hits copy the shape counters into the run's Stats so downstream
// accounting (the experiments' group-equality checks, merged aggregates)
// sees the search the plan stands for. Entries are immutable: hits share
// plan, they do not copy it.
type cachedPlan struct {
	plan      *core.Expr
	cost      float64
	groups    int
	exprs     int
	merges    int
	memoBytes int64
	// work is the cold run's search work, its trans_rule firings plus
	// costed plans: what a miss on the entry would do again. It tracks
	// the search's time at about a microsecond a unit, without a clock.
	work uint64
	// render is the entry's rendering slot, handed to every run the
	// entry answers (Optimizer.Rendering).
	render *Rendering
}

// Weight is the entry's cost to the cache's eviction policy.
func (cp *cachedPlan) Weight() uint64 { return cp.work }

// RemoteEntry is a cache entry's payload in exported form: the winner
// plan plus the cold-run shape statistics a hit reports. It is what the
// cache-entry codec (wire.EncodeEntry / DecodeEntry) carries; the engine
// itself never builds one — the benchmark times that codec
// (wire.entry_roundtrip_us).
type RemoteEntry struct {
	Plan      *core.Expr
	Cost      float64
	Groups    int
	Exprs     int
	Merges    int
	MemoBytes int64
}

// publishable builds the entry of this run's completed search, with a
// fresh rendering slot: the plan is cloned on the way in, because the
// run's caller owns the original.
func (o *Optimizer) publishable(plan *core.Expr) cachedPlan {
	cp := cachedPlan{
		plan:      plan.Clone(),
		cost:      plan.Cost(o.RS.Class),
		groups:    o.Stats.Groups,
		exprs:     o.Stats.Exprs,
		merges:    o.Stats.Merges,
		memoBytes: o.Stats.MemoBytes,
		work:      uint64(o.Stats.CostedPlans),
		render:    new(Rendering),
	}
	for _, n := range o.Stats.TransFired {
		cp.work += uint64(n)
	}
	o.Rendering = cp.render
	return cp
}

// budgetClass renders the budget, the one option that can change which
// plan a search produces; it is folded into the cache key so differently
// bounded searches never share entries.
func budgetClass(b Budget) string {
	if b.IsZero() {
		return "0"
	}
	return fmt.Sprintf("t%s,e%d", b.Timeout, b.MaxExprs)
}

// rootKey builds the cache key of a query: the tree's fingerprint
// extended with the required physical properties and the budget class,
// rendered into one buffer and stamped with scope and epoch.
func (o *Optimizer) rootKey(tree *core.Expr, req *core.Descriptor) plancache.Key {
	fp, canon := o.RS.fingerprintWalk(tree, make([]byte, 0, 512))
	phys := o.RS.Class.Phys
	bstr := budgetClass(o.Opts.Budget)
	fp = core.HashCombine(fp, req.HashOn(phys))
	fp = core.HashCombine(fp, hashLeafName(bstr))
	canon = appendProj(append(canon, "|req:"...), req, phys)
	canon = append(append(canon, "|b:"...), bstr...)
	return plancache.Key{
		Fingerprint: fp,
		Canon:       string(canon),
		Scope:       o.RS.cacheScope(),
		Epoch:       o.Opts.Cache.c.Epoch(),
	}
}

// cachedOptimize wraps one optimization in the plan cache; it is the
// dispatch target of OptimizeContext whenever Options.Cache is set.
//
//   - Full hit: the entry's plan is handed out as is (read-only, see
//     cacheHit), no search runs.
//   - Miss (leader): the cold search runs; a completed (non-degraded)
//     result is published to the cache and to every follower waiting on
//     the same key.
//   - Miss (follower): wait for the leader; adopt its shared result, or
//     run an independent search when the leader declined to share
//     (degraded or failed runs are never cached).
func (o *Optimizer) cachedOptimize(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*core.Expr, error) {
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	pc := o.Opts.Cache
	key := o.rootKey(tree, req)
	a := pc.c.Acquire(key)
	if a.Hit {
		o.Stats.CacheHits++
		return o.cacheHit(a.Value), nil
	}
	if !a.Leader {
		o.Stats.FlightWaits++
		cp, ok, err := a.Wait(ctx)
		if err == nil && ok {
			o.Stats.FlightShared++
			o.Stats.CacheHits++
			return o.cacheHit(cp), nil
		}
		// Leader declined to share or our wait was cancelled: run an
		// independent search (a cancelled context degrades it per
		// OptimizeContext semantics) and publish the result ourselves.
		o.Stats.CacheMisses++
		plan, err := o.optimizeContext(ctx, tree, req)
		if err == nil && plan != nil && !o.Stats.Degraded {
			pc.c.Put(key, o.publishable(plan))
		}
		return plan, err
	}
	o.Stats.CacheMisses++
	// A panicking rule hook must not wedge followers: the deferred
	// no-share Complete is idempotent, so the success path below wins
	// when it runs first.
	defer a.Complete(cachedPlan{}, false)
	plan, err := o.optimizeContext(ctx, tree, req)
	if err != nil || plan == nil || o.Stats.Degraded {
		a.Complete(cachedPlan{}, false)
		return plan, err
	}
	a.Complete(o.publishable(plan), true)
	return plan, nil
}

// cacheHit materializes a cache entry as this run's result: the cold
// run's memo-shape counters are copied into Stats, standing in for the
// search that was skipped, and the entry's plan and rendering slot are
// handed out. The plan is shared by every run the entry answers and is
// read-only: nothing in the engine, the codec or the executor writes a
// plan (TestPlanConsumersReadOnly), and a caller that wants to must
// Clone first.
func (o *Optimizer) cacheHit(cp cachedPlan) *core.Expr {
	o.Rendering = cp.render
	o.Stats.Groups = cp.groups
	o.Stats.Exprs = cp.exprs
	o.Stats.Merges = cp.merges
	o.Stats.MemoBytes = cp.memoBytes
	return cp.plan
}
