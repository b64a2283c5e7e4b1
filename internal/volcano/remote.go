package volcano

import (
	"context"

	"prairie/internal/plancache"
)

// This file is the engine side of the cluster peer-fill protocol: the
// RemoteCache hook a serving layer plugs into Options.Remote, and the
// owner-side surface (RemoteAcquire / Insert) the same layer uses to
// answer peer requests out of its local PlanCache. The engine stays
// transport-agnostic — internal/cluster speaks HTTP and bytes, this
// file speaks keys and plans, and internal/server adapts between them
// with the wire codec.

// RemoteOutcome classifies one Fetch against the key's owning peer.
type RemoteOutcome int

const (
	// RemoteNone: no peer was consulted (key owned locally, or the
	// cluster layer declined). The caller proceeds exactly as without a
	// Remote hook.
	RemoteNone RemoteOutcome = iota
	// RemoteHit: the owner served the entry from its shard.
	RemoteHit
	// RemoteCollapsed: the owner parked this node behind an in-progress
	// flight (local or another peer's) and shared that leader's result —
	// the cluster-wide collapse of concurrent misses.
	RemoteCollapsed
	// RemoteLead: the owner missed and granted this node the cluster-wide
	// lead; it must optimize locally and Offer the result back.
	RemoteLead
	// RemoteMiss: the owner missed and could not grant a lease (or the
	// awaited leader declined to share); optimize locally.
	RemoteMiss
	// RemoteStale: this node's epoch lagged the owner's. The cluster
	// layer has already advanced the local epoch; the caller rebuilds
	// its key and retries.
	RemoteStale
	// RemoteError: the owner was unreachable or answered garbage;
	// optimize locally (degrade, never error).
	RemoteError
)

// RemoteEntry is one cache entry in engine terms: the winner plan plus
// the cold-run shape statistics a hit reports (the payload of a local
// cachedPlan).
type RemoteEntry struct {
	Plan      *PExpr
	Cost      float64
	Groups    int
	Exprs     int
	Merges    int
	MemoBytes int64
}

// RemoteResult is the outcome of one RemoteCache.Fetch.
type RemoteResult struct {
	Outcome RemoteOutcome
	// Entry holds the fetched plan for RemoteHit / RemoteCollapsed.
	Entry RemoteEntry
	// StoreLocal marks the key as hot: the engine keeps a local replica
	// of the fetched entry so subsequent hits skip the peer round-trip.
	StoreLocal bool
}

// RemoteCache is the cluster hook consulted on cache-miss paths.
// Implementations must be safe for concurrent use and must degrade
// (RemoteError / RemoteMiss), never block beyond their configured
// timeouts or return errors.
type RemoteCache interface {
	// Fetch asks the key's owning peer for the entry before this node
	// optimizes. Implementations reconcile epochs as a side effect.
	Fetch(ctx context.Context, key plancache.Key) RemoteResult
	// Offer hands a freshly computed (non-degraded) entry to
	// the cluster: implementations forward it to the owning peer when
	// remote. The return value says whether the engine should also store
	// the entry locally — true for locally-owned keys and hot-promoted
	// replicas, false for entries whose capacity belongs to another
	// shard.
	Offer(key plancache.Key, e RemoteEntry) (storeLocal bool)
	// Abandon tells the key's owner that a lease granted by Fetch
	// (RemoteLead) will not be fulfilled — the optimization errored or
	// degraded — so the owner can release parked followers immediately
	// instead of waiting out its lease TTL. Best-effort, asynchronous,
	// and a no-op for locally-owned keys.
	Abandon(key plancache.Key)
}

// entryOf converts a cache entry to its wire-facing form.
func entryOf(cp cachedPlan) RemoteEntry {
	return RemoteEntry{
		Plan:      cp.plan,
		Cost:      cp.cost,
		Groups:    cp.groups,
		Exprs:     cp.exprs,
		Merges:    cp.merges,
		MemoBytes: cp.memoBytes,
	}
}

// cachedPlanOf converts a fetched entry back to a cache entry. replica
// marks hot-key replicas of remotely-owned entries (ReplicaHits
// accounting).
func cachedPlanOf(e RemoteEntry, replica bool) cachedPlan {
	cp := newCachedPlan(e)
	cp.replica = replica
	return cp
}

// RemoteAcquired is the owner-side view of one peer lookup: a hit, a
// lease grant (Leader), or a follower position behind an in-progress
// flight. It wraps the same singleflight machinery local misses use,
// which is what makes the collapse cluster-wide.
type RemoteAcquired struct {
	a *plancache.Acquired[cachedPlan]
}

// Hit returns the entry when the lookup hit.
func (ra *RemoteAcquired) Hit() (RemoteEntry, bool) {
	if ra.a == nil || !ra.a.Hit {
		return RemoteEntry{}, false
	}
	return entryOf(ra.a.Value), true
}

// Leader reports whether this lookup owns the miss (the peer protocol
// grants the requesting node a lease to optimize).
func (ra *RemoteAcquired) Leader() bool { return ra.a != nil && ra.a.Leader }

// Wait parks a follower behind the in-progress flight until the leader
// completes (sharing its entry → ok) or ctx expires.
func (ra *RemoteAcquired) Wait(ctx context.Context) (RemoteEntry, bool) {
	if ra.a == nil {
		return RemoteEntry{}, false
	}
	cp, ok, err := ra.a.Wait(ctx)
	if err != nil || !ok {
		return RemoteEntry{}, false
	}
	return entryOf(cp), true
}

// Complete resolves a leader's flight with the entry the remote lessee
// computed: it is stored in the owner's shard and shared with every
// local and remote follower. Idempotent.
func (ra *RemoteAcquired) Complete(e RemoteEntry) {
	if ra.a == nil {
		return
	}
	ra.a.Complete(cachedPlanOf(e, false), true)
}

// Abandon releases a leader's flight without a result (lease expiry,
// undecodable payload): followers are released empty-handed to run
// their own searches. Idempotent.
func (ra *RemoteAcquired) Abandon() {
	if ra.a == nil {
		return
	}
	var zero cachedPlan
	ra.a.Complete(zero, false)
}

// RemoteAcquire opens an owner-side lookup for a peer request.
func (pc *PlanCache) RemoteAcquire(k plancache.Key) *RemoteAcquired {
	if !pc.Enabled() {
		return &RemoteAcquired{}
	}
	return &RemoteAcquired{a: pc.c.Acquire(k)}
}

// Insert stores a peer-offered entry directly (the put path of the peer
// protocol, used when no lease is outstanding).
func (pc *PlanCache) Insert(k plancache.Key, e RemoteEntry) {
	if !pc.Enabled() {
		return
	}
	pc.c.Put(k, cachedPlanOf(e, false))
}

// Lookup returns the entry under k, if any — the owner-side
// read of a replicated or locally-stored entry, without flight
// registration (peer gets that must not lead use RemoteAcquire).
func (pc *PlanCache) Lookup(k plancache.Key) (RemoteEntry, bool) {
	if !pc.Enabled() {
		return RemoteEntry{}, false
	}
	cp, ok := pc.c.Get(k)
	if !ok {
		return RemoteEntry{}, false
	}
	return entryOf(cp), true
}

// AdvanceTo raises the cache epoch to at least e (monotonic) and
// returns the result — cross-node epoch reconciliation.
func (pc *PlanCache) AdvanceTo(e uint64) uint64 {
	if pc == nil {
		return 0
	}
	return pc.c.AdvanceTo(e)
}

// Shards exposes per-shard occupancy and eviction counts for the
// metrics exposition.
func (pc *PlanCache) Shards() []plancache.ShardStat {
	if pc == nil {
		return nil
	}
	return pc.c.Shards()
}
