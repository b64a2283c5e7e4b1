package volcano

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/plancache"
)

// PlanCache is the engine-facing handle of the cross-query plan cache:
// a sharded LRU of extracted winner plans keyed by canonical query
// fingerprint, required physical properties, budget class, rule-set
// scope, and cache epoch, with singleflight collapsing of concurrent
// misses (see internal/plancache for the storage layer).
//
// One PlanCache may be shared by any number of concurrent optimizers. A
// nil *PlanCache — or NewPlanCache(0) — is a valid disabled handle that
// leaves the engine byte-identical to a cacheless build.
type PlanCache struct {
	c *plancache.Cache[cachedPlan]
}

// NewPlanCache returns a cache holding up to capacity plans;
// capacity <= 0 yields a disabled handle.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: plancache.New[cachedPlan](capacity)}
}

// Enabled reports whether the cache stores anything.
func (pc *PlanCache) Enabled() bool { return pc != nil && pc.c.Enabled() }

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

// Invalidate starts a new cache generation; call it when the catalog
// backing the rule set changes in place. (A freshly built RuleSet needs
// no invalidation — every instance has its own scope.) It returns the
// new epoch.
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
	if !pc.Enabled() {
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
// (re-)insert builds a new one through newCachedPlan, so a rendering
// can never outlive the plan it was made from.
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
	plan      *PExpr
	cost      float64
	groups    int
	exprs     int
	merges    int
	memoBytes int64
	// replica marks a hot-key replica of an entry owned by a remote
	// cluster shard (zero off-cluster): hits on it count as ReplicaHits
	// so the replication tier's effect is observable.
	replica bool
	// render is the entry's rendering slot, handed to every run the
	// entry answers (Optimizer.Rendering).
	render *Rendering
}

// newCachedPlan is the one constructor of cache entries, so that every
// entry owns a fresh rendering slot; cachedPlanOf marks replicas on the
// result.
func newCachedPlan(e RemoteEntry) cachedPlan {
	return cachedPlan{
		plan:      e.Plan,
		cost:      e.Cost,
		groups:    e.Groups,
		exprs:     e.Exprs,
		merges:    e.Merges,
		memoBytes: e.MemoBytes,
		render:    new(Rendering),
	}
}

// publishable builds the entry of this run's completed search: the plan
// is cloned on the way in, because the run's caller owns the original.
func (o *Optimizer) publishable(plan *PExpr) cachedPlan {
	cp := newCachedPlan(RemoteEntry{
		Plan:      plan.Clone(),
		Cost:      plan.Cost(o.RS.Class),
		Groups:    o.Stats.Groups,
		Exprs:     o.Stats.Exprs,
		Merges:    o.Stats.Merges,
		MemoBytes: o.Stats.MemoBytes,
	})
	o.Rendering = cp.render
	return cp
}

// budgetClass renders the options fields that can change which plan a
// search produces; it is folded into the cache key so differently
// bounded searches never share entries.
func budgetClass(opts Options) string {
	b := opts.Budget
	if b.IsZero() && opts.Explorer == ExplorerWorklist {
		return "0"
	}
	return fmt.Sprintf("t%s,e%d,g%d,f%d,x%d",
		b.Timeout, b.MaxExprs, b.MaxGroups, b.MaxRuleFirings, opts.Explorer)
}

// rootKey builds the cache key of a query: the tree's fingerprint
// extended with the required physical properties and the budget class,
// rendered into one buffer and stamped with scope and epoch.
func (o *Optimizer) rootKey(tree *core.Expr, req *core.Descriptor) plancache.Key {
	fp, canon := o.RS.fingerprintWalk(tree, make([]byte, 0, 512))
	phys := o.RS.Class.Phys
	bstr := budgetClass(o.Opts)
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
// dispatch target of OptimizeContext whenever Options.Cache is enabled.
//
//   - Full hit: the entry's plan is handed out as is (read-only, see
//     cacheHit), no search runs.
//   - Miss (leader): the cold search runs; a completed (non-degraded)
//     result is published to the cache and to every follower waiting on
//     the same key.
//   - Miss (follower): wait for the leader; adopt its shared result, or
//     run an independent search when the leader declined to share
//     (degraded or failed runs are never cached).
func (o *Optimizer) cachedOptimize(ctx context.Context, tree *core.Expr, req *core.Descriptor) (*PExpr, error) {
	if req == nil {
		req = core.NewDescriptor(o.RS.Algebra.Props)
	}
	// A stale-epoch answer from the owning peer means the cluster layer
	// just advanced the local epoch: rebuild the key under the new
	// generation and retry once. The bound matters — a peer that keeps
	// racing ahead must not starve this request, so the second attempt
	// treats a further stale answer as a plain miss.
	plan, err, retry := o.cachedOptimizeOnce(ctx, tree, req, true)
	if retry {
		plan, err, _ = o.cachedOptimizeOnce(ctx, tree, req, false)
	}
	return plan, err
}

func (o *Optimizer) cachedOptimizeOnce(ctx context.Context, tree *core.Expr, req *core.Descriptor, allowStaleRetry bool) (*PExpr, error, bool) {
	pc := o.Opts.Cache
	ph := o.Opts.Phases
	var phStart time.Time
	if ph != nil {
		phStart = time.Now()
	}
	key := o.rootKey(tree, req)
	a := pc.c.Acquire(key)
	if a.Hit {
		o.Stats.CacheHits++
		if a.Value.replica {
			o.Stats.ReplicaHits++
		}
		plan := o.cacheHit(a.Value)
		if ph != nil {
			ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
		}
		return plan, nil, false
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
			o.Stats.FlightShared++
			o.Stats.CacheHits++
			if cp.replica {
				o.Stats.ReplicaHits++
			}
			return o.cacheHit(cp), nil, false
		}
		// Leader declined to share or our wait was cancelled: run an
		// independent search (a cancelled context degrades it per
		// OptimizeContext semantics) and publish the result ourselves.
		o.Stats.CacheMisses++
		plan, err := o.optimizeContext(ctx, tree, req)
		if err == nil && plan != nil && !o.Stats.Degraded {
			cp := o.publishable(plan)
			if rem := o.Opts.Remote; rem != nil {
				// A remotely-owned entry's capacity belongs to its shard:
				// offer it to the owner and store locally only when the
				// cluster layer says so (self-owned or hot).
				if rem.Offer(key, entryOf(cp)) {
					pc.c.Put(key, cp)
				}
			} else {
				pc.c.Put(key, cp)
			}
		}
		return plan, err, false
	}
	o.Stats.CacheMisses++
	// A panicking rule hook must not wedge followers: the deferred
	// no-share Complete is idempotent, so the success path below wins
	// when it runs first. Registered before the peer fetch so a panic
	// there cannot wedge them either.
	defer a.Complete(cachedPlan{}, false)
	remoteLead := false
	if rem := o.Opts.Remote; rem != nil {
		// Local miss, and this request leads the local flight: ask the
		// key's owning peer before optimizing. The fetch happens inside
		// the cache phase — a peer fill is cache time, not search time.
		res := rem.Fetch(ctx, key)
		switch res.Outcome {
		case RemoteHit, RemoteCollapsed:
			cp := cachedPlanOf(res.Entry, res.StoreLocal)
			a.CompleteShared(cp, res.StoreLocal)
			o.Stats.PeerFills++
			if res.Outcome == RemoteCollapsed {
				o.Stats.FlightShared++
			}
			plan := o.cacheHit(cp)
			if ph != nil {
				ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
			}
			return plan, nil, false
		case RemoteStale:
			if allowStaleRetry {
				// The cluster layer advanced our epoch; release the dead
				// flight and let the caller rebuild the key.
				a.Complete(cachedPlan{}, false)
				return nil, nil, true
			}
			// Out of retries: fall through and optimize under the stale
			// key (the entry becomes unreachable garbage, never a wrong
			// answer — keys embed their epoch).
		}
		// RemoteLead / RemoteMiss / RemoteError / RemoteNone: optimize
		// locally. A lead's result is offered back to the owner below,
		// completing the cluster-wide flight.
		remoteLead = res.Outcome == RemoteLead
	}
	if ph != nil {
		ph.Observe(obs.PhaseCache, phStart, time.Since(phStart))
	}
	plan, err := o.optimizeContext(ctx, tree, req)
	if err != nil || plan == nil || o.Stats.Degraded {
		if remoteLead {
			// The owner granted this node the cluster-wide lease; with
			// no result coming, release its parked followers now rather
			// than after the lease TTL.
			o.Opts.Remote.Abandon(key)
		}
		a.Complete(cachedPlan{}, false)
		return plan, err, false
	}
	cp := o.publishable(plan)
	if rem := o.Opts.Remote; rem != nil {
		// Share with local followers unconditionally; store locally only
		// when the cluster layer keeps the capacity here (self-owned key
		// or hot-promoted replica). The offer also completes any lease
		// the owner granted this node.
		a.CompleteShared(cp, rem.Offer(key, entryOf(cp)))
	} else {
		a.Complete(cp, true)
	}
	return plan, nil, false
}

// cacheHit materializes a cache entry as this run's result: the cold
// run's memo-shape counters are copied into Stats, standing in for the
// search that was skipped, and the entry's plan and rendering slot are
// handed out. The plan is shared by every run the entry answers and is
// read-only: nothing in the engine, the codec or the executor writes a
// plan (TestPlanConsumersReadOnly), and a caller that wants to must
// Clone first.
func (o *Optimizer) cacheHit(cp cachedPlan) *PExpr {
	o.Rendering = cp.render
	o.Stats.Groups = cp.groups
	o.Stats.Exprs = cp.exprs
	o.Stats.Merges = cp.merges
	o.Stats.MemoBytes = cp.memoBytes
	return cp.plan
}
