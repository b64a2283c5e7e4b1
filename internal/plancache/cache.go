// Package plancache implements the storage layer of the cross-query
// plan cache: a sharded, lock-striped LRU keyed by canonical query
// fingerprints, with epoch-based invalidation and singleflight miss
// collapsing.
//
// The package is deliberately engine-agnostic (and stdlib-only): keys
// are opaque fingerprints plus an exact canonical rendering, values are
// a type parameter. Package internal/volcano layers plan semantics on
// top — fingerprint computation and statistics plumbing — so the cache
// itself stays small enough to reason about under concurrency.
//
// Concurrency model: every shard is guarded by one mutex held only for
// map/list operations (never across a search). Misses on the same key
// collapse through a per-key flight: the first Acquire becomes the
// leader and runs the search; concurrent Acquires become followers and
// Wait for the leader's Complete. Statistics are atomic counters,
// readable without stopping the world.
package plancache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Key identifies one cached value. Two keys are equal iff every field
// is equal — the Canon string makes fingerprint collisions harmless.
type Key struct {
	// Fingerprint is the structural hash; it selects the shard and
	// provides fast map hashing.
	Fingerprint uint64
	// Canon is the exact canonical rendering the fingerprint digests
	// (tree shape, descriptor projections, requirement, budget class).
	// Equality on Canon is what makes a hit sound, not the hash.
	Canon string
	// Scope separates keyspaces that must never share entries — the
	// engine uses one scope per rule-set instance, since costs depend
	// on the catalog closure compiled into the rules.
	Scope uint64
	// Epoch is the cache generation the key was built under; keys built
	// after an Invalidate never match entries written before it.
	Epoch uint64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses int64 // Get/Acquire outcomes
	Puts         int64 // entries written (Put or shared Complete)
	Evictions    int64 // LRU evictions
	FlightWaits  int64 // followers that waited behind a leader
	FlightShared int64 // waits resolved by adopting the leader's result
	Entries      int   // live entries
	Epoch        uint64
}

type entry[V any] struct {
	k Key
	v V
}

// flight is one in-progress miss: the leader computes, followers wait
// on done. shared/v are written exactly once, before done is closed.
type flight[V any] struct {
	done   chan struct{}
	v      V
	shared bool
}

type shard[V any] struct {
	mu        sync.Mutex
	items     map[Key]*list.Element // of entry[V]
	lru       *list.List            // front = most recently used
	flights   map[Key]*flight[V]
	evictions int64 // under mu; feeds ShardStat
}

// Cache is a sharded LRU with singleflight. The zero value is not
// usable; call New. A Cache with capacity <= 0 is a valid disabled
// handle: every operation is a cheap no-op and Enabled reports false.
type Cache[V any] struct {
	shards      []shard[V]
	mask        uint64
	capPerShard int
	capacity    int
	epoch       atomic.Uint64

	hits, misses, puts, evictions atomic.Int64
	flightWaits, flightShared     atomic.Int64
}

// New returns a cache holding up to capacity entries (approximately:
// the budget is split evenly across shards). capacity <= 0 returns a
// disabled handle.
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{capacity: capacity}
	if capacity <= 0 {
		return c
	}
	n := 16
	for n > 1 && n*2 > capacity {
		n /= 2
	}
	c.shards = make([]shard[V], n)
	c.mask = uint64(n - 1)
	c.capPerShard = (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard[V]{
			items:   make(map[Key]*list.Element),
			lru:     list.New(),
			flights: make(map[Key]*flight[V]),
		}
	}
	return c
}

// Enabled reports whether the cache stores anything.
func (c *Cache[V]) Enabled() bool { return c != nil && c.capacity > 0 }

// Capacity returns the configured entry budget (0 when disabled).
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Epoch returns the current cache generation; the engine stamps it
// into every key so Invalidate cuts off all older entries at once.
func (c *Cache[V]) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Invalidate starts a new generation: keys built from now on cannot
// match entries written before the call. Stale entries are not swept
// eagerly — unreachable, they age out of the LRU under normal traffic.
// It returns the new epoch.
func (c *Cache[V]) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Add(1)
}

func (c *Cache[V]) shardFor(k Key) *shard[V] {
	h := k.Fingerprint
	h ^= k.Scope * 0x9e3779b97f4a7c15
	h ^= k.Epoch * 0xff51afd7ed558ccd
	return &c.shards[(h^h>>32)&c.mask]
}

// Get returns the cached value for k, counting a hit or miss and
// promoting the entry on hit.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if !c.Enabled() {
		return zero, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.items[k]
	if ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).v
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Put writes k's value, evicting from the shard's LRU tail when over
// budget.
func (c *Cache[V]) Put(k Key, v V) {
	if !c.Enabled() {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	s.put(c, k, v)
	s.mu.Unlock()
}

// put writes under the shard lock.
func (s *shard[V]) put(c *Cache[V], k Key, v V) {
	if el, ok := s.items[k]; ok {
		el.Value.(*entry[V]).v = v
		s.lru.MoveToFront(el)
		c.puts.Add(1)
		return
	}
	s.items[k] = s.lru.PushFront(&entry[V]{k: k, v: v})
	c.puts.Add(1)
	for s.lru.Len() > c.capPerShard {
		tail := s.lru.Back()
		e := tail.Value.(*entry[V])
		s.lru.Remove(tail)
		delete(s.items, e.k)
		c.evictions.Add(1)
		s.evictions++
	}
}

// ShardStat is one shard's occupancy and lifetime eviction count, for
// the per-shard metrics exposition (shard imbalance under a skewed
// keyspace shows up here before it shows up as a hit-rate regression).
type ShardStat struct {
	Entries   int
	Evictions int64
}

// Shards returns a per-shard snapshot; nil when the cache is disabled.
func (c *Cache[V]) Shards() []ShardStat {
	if !c.Enabled() {
		return nil
	}
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardStat{Entries: s.lru.Len(), Evictions: s.evictions}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of live entries.
func (c *Cache[V]) Len() int {
	if !c.Enabled() {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the current counters.
func (c *Cache[V]) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Puts:         c.puts.Load(),
		Evictions:    c.evictions.Load(),
		FlightWaits:  c.flightWaits.Load(),
		FlightShared: c.flightShared.Load(),
		Entries:      c.Len(),
		Epoch:        c.Epoch(),
	}
}

// Acquired is the outcome of one Acquire. Exactly one of three shapes:
//
//   - Hit: Value holds the cached result; nothing else to do.
//   - Leader (Leader true): the caller owns the miss — it must compute
//     the value and call Complete exactly once, on every path
//     (Complete is idempotent, so a deferred no-share Complete is a
//     safe panic backstop).
//   - Follower (neither): another goroutine is computing the same key;
//     Wait blocks for its Complete.
type Acquired[V any] struct {
	Value  V
	Hit    bool
	Leader bool

	c         *Cache[V]
	key       Key
	fl        *flight[V]
	completed bool
}

// Acquire looks up k, registering a flight on miss so concurrent
// misses collapse into one computation. On a disabled cache it always
// returns a leader with nothing registered (Complete is a no-op).
func (c *Cache[V]) Acquire(k Key) *Acquired[V] {
	if !c.Enabled() {
		return &Acquired[V]{Leader: true}
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		// Read under the lock: a Put on an existing key overwrites the
		// entry's value in place.
		v := el.Value.(*entry[V]).v
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return &Acquired[V]{Value: v, Hit: true}
	}
	if fl, ok := s.flights[k]; ok {
		s.mu.Unlock()
		c.flightWaits.Add(1)
		return &Acquired[V]{c: c, key: k, fl: fl}
	}
	fl := &flight[V]{done: make(chan struct{})}
	s.flights[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)
	return &Acquired[V]{Leader: true, c: c, key: k, fl: fl}
}

// Complete resolves a leader's flight: with share true the value is
// published to the cache and handed to every waiting follower; with
// share false (degraded or failed computations) followers are released
// empty-handed to run their own searches. Idempotent; no-op for hits,
// followers, and disabled caches.
func (a *Acquired[V]) Complete(v V, share bool) {
	if !a.Leader || a.fl == nil || a.completed {
		return
	}
	a.completed = true
	s := a.c.shardFor(a.key)
	s.mu.Lock()
	delete(s.flights, a.key)
	if share {
		s.put(a.c, a.key, v)
	}
	a.fl.v, a.fl.shared = v, share
	s.mu.Unlock()
	close(a.fl.done)
}

// Wait blocks a follower until the leader Completes (returning the
// shared value, or ok=false when the leader declined to share) or ctx
// is cancelled. For hits and leaders it returns immediately.
func (a *Acquired[V]) Wait(ctx context.Context) (V, bool, error) {
	var zero V
	if a.Hit {
		return a.Value, true, nil
	}
	if a.Leader || a.fl == nil {
		return zero, false, nil
	}
	select {
	case <-a.fl.done:
		if a.fl.shared {
			a.c.flightShared.Add(1)
			return a.fl.v, true, nil
		}
		return zero, false, nil
	case <-ctx.Done():
		return zero, false, ctx.Err()
	}
}
