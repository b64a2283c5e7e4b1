// Package plancache implements the storage layer of the cross-query
// plan cache: one exact LRU keyed by canonical query fingerprints, with
// epoch-based invalidation and singleflight miss collapsing.
//
// The package is deliberately engine-agnostic (and stdlib-only): keys
// are opaque fingerprints plus an exact canonical rendering, values are
// a type parameter. Package internal/volcano layers plan semantics on
// top — fingerprint computation and statistics plumbing — so the cache
// itself stays small enough to reason about under concurrency.
//
// Concurrency model: one mutex guards the entries and the flights,
// held only for map/list operations (never across a search). Misses on
// the same key collapse through a per-key flight: the first Acquire
// becomes the leader and runs the search; concurrent Acquires become
// followers and Wait for the leader's Complete. Statistics are atomic
// counters, readable without stopping the world.
package plancache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Key identifies one cached value. Two keys are equal iff every field
// is equal — the Canon string makes fingerprint collisions harmless.
type Key struct {
	// Fingerprint is the structural hash of the query Canon renders.
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

// Cache is an LRU with singleflight: one map of entries, one map of
// flights and one mutex over both. The zero value is not usable; call
// New. A nil *Cache is the disabled cache: every operation is a cheap
// no-op.
type Cache[V any] struct {
	mu       sync.Mutex
	items    map[Key]*list.Element // of entry[V]
	lru      *list.List            // front = most recently used
	flights  map[Key]*flight[V]
	capacity int
	epoch    atomic.Uint64

	hits, misses, puts, evictions atomic.Int64
	flightWaits, flightShared     atomic.Int64
}

// New returns a cache holding up to capacity entries. It panics on a
// capacity <= 0: the disabled cache is nil.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("plancache: capacity %d <= 0 (a disabled cache is nil)", capacity))
	}
	return &Cache[V]{
		items:    make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight[V]),
		capacity: capacity,
	}
}

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

// Get returns the cached value for k, counting a hit or miss and
// promoting the entry on hit.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	el, ok := c.items[k]
	if ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).v
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Put writes k's value, evicting from the LRU tail when over budget.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.put(k, v)
	c.mu.Unlock()
}

// put writes under c.mu.
func (c *Cache[V]) put(k Key, v V) {
	c.puts.Add(1)
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[V]).v = v
		c.lru.MoveToFront(el)
		return
	}
	c.items[k] = c.lru.PushFront(&entry[V]{k: k, v: v})
	for c.lru.Len() > c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.items, tail.Value.(*entry[V]).k)
		c.evictions.Add(1)
	}
}

// Len returns the number of live entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
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
// misses collapse into one computation. On a nil cache it always
// returns a leader with nothing registered (Complete is a no-op).
func (c *Cache[V]) Acquire(k Key) *Acquired[V] {
	if c == nil {
		return &Acquired[V]{Leader: true}
	}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		// Read under the lock: a Put on an existing key overwrites the
		// entry's value in place.
		v := el.Value.(*entry[V]).v
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return &Acquired[V]{Value: v, Hit: true}
	}
	if fl, ok := c.flights[k]; ok {
		c.mu.Unlock()
		c.flightWaits.Add(1)
		return &Acquired[V]{c: c, key: k, fl: fl}
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[k] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	return &Acquired[V]{Leader: true, c: c, key: k, fl: fl}
}

// Complete resolves a leader's flight: with share true the value is
// published to the cache and handed to every waiting follower; with
// share false (degraded or failed computations) followers are released
// empty-handed to run their own searches. Idempotent; no-op for hits,
// followers, and a nil cache.
func (a *Acquired[V]) Complete(v V, share bool) {
	if !a.Leader || a.fl == nil || a.completed {
		return
	}
	a.completed = true
	c := a.c
	c.mu.Lock()
	delete(c.flights, a.key)
	if share {
		c.put(a.key, v)
	}
	a.fl.v, a.fl.shared = v, share
	c.mu.Unlock()
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
