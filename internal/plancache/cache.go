// Package plancache implements the storage layer of the cross-query
// plan cache: one exact, cost-weighted cache keyed by canonical query
// fingerprints, with epoch-based invalidation and singleflight miss
// collapsing.
//
// Eviction is GreedyDual-Size-Frequency (Cao and Irani 1997; Cherkasova
// 1998): an entry's priority is L + freq × cost, where cost is what a
// miss on it would recompute (Weigher; 1 for a value that does not
// say) and freq counts its uses. The victim is the entry of lowest
// priority, the least recently used of those tied; L then rises to the
// victim's priority, so an entry nobody uses ages out however costly it
// was. No clock is read: costs are deterministic units of work.
//
// The package is deliberately engine-agnostic (and stdlib-only): keys
// are opaque fingerprints plus an exact canonical rendering, values are
// a type parameter. Package internal/volcano layers plan semantics on
// top — fingerprint computation, entry costs and statistics plumbing —
// so the cache itself stays small enough to reason about under
// concurrency.
//
// Concurrency model: one mutex guards the entries and the flights,
// held only for map and heap operations (never across a search). Misses
// on the same key collapse through a per-key flight: the first Acquire
// becomes the leader and runs the search; concurrent Acquires become
// followers and Wait for the leader's Complete. Statistics are atomic
// counters, readable without stopping the world.
package plancache

import (
	"container/heap"
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
	Evictions    int64 // entries evicted for room
	FlightWaits  int64 // followers that waited behind a leader
	FlightShared int64 // waits resolved by adopting the leader's result
	Entries      int   // live entries
	Epoch        uint64
}

// Weigher is implemented by values that know their cost: the work a
// miss on them repeats. A Cache[V] asks *V, so a method on V or on *V
// serves. Costs are relative units; a value that is not a Weigher, or
// weighs less than 1, weighs 1.
type Weigher interface {
	Weight() uint64
}

// entry is one cached value and its place in the eviction order. The
// heap files it under (filed, filedTick); a hit only bumps freq, base
// and tick, so the filed key trails the entry's priority until an
// eviction pops it and files it again.
type entry[V any] struct {
	k Key
	v V
	// cost is v's weight; freq counts the entry's uses; base is L at its
	// last use and tick the cache's use counter then.
	cost, freq, base, tick uint64
	// filed and filedTick are the key the heap orders the entry by,
	// never above its priority; at is its heap index.
	filed, filedTick uint64
	at               int
}

// priority is the entry's GDSF priority as of its last use.
func (e *entry[V]) priority() uint64 { return e.base + e.freq*e.cost }

// weight returns v's cost. It takes a pointer to the stored value, so
// asking it boxes nothing.
func weight[V any](v *V) uint64 {
	if w, ok := any(v).(Weigher); ok {
		return max(w.Weight(), 1)
	}
	return 1
}

// order is the eviction heap: the minimum is the entry of lowest filed
// priority, the least recently used of those tied.
type order[V any] []*entry[V]

func (h order[V]) Len() int { return len(h) }
func (h order[V]) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.filed < b.filed || a.filed == b.filed && a.filedTick < b.filedTick
}
func (h order[V]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
func (h *order[V]) Push(x any) {
	e := x.(*entry[V])
	e.at = len(*h)
	*h = append(*h, e)
}
func (h *order[V]) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// flight is one in-progress miss: the leader computes, followers wait
// on done. shared/v are written exactly once, before done is closed.
type flight[V any] struct {
	done   chan struct{}
	v      V
	shared bool
}

// Cache is a GDSF-evicted cache with singleflight: one map of entries,
// their eviction heap, one map of flights and one mutex over all three.
// The zero value is not usable; call New. A nil *Cache is the disabled
// cache: every operation is a cheap no-op.
type Cache[V any] struct {
	mu       sync.Mutex
	items    map[Key]*entry[V]
	heap     order[V]
	flights  map[Key]*flight[V]
	capacity int
	epoch    atomic.Uint64
	// inflation is GDSF's L: the priority of the last victim. tick
	// counts uses, for the least-recently-used tie break.
	inflation, tick uint64

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
		items:    make(map[Key]*entry[V]),
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
// match entries written before the call, and those entries are dropped
// at once, so none keeps a slot on the strength of its old uses. A
// flight begun before the call still hands its value to its followers
// but stores nothing. It returns the new epoch.
func (c *Cache[V]) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.items)
	clear(c.heap)
	c.heap, c.inflation = c.heap[:0], 0
	return c.epoch.Add(1)
}

// Get returns the cached value for k, counting a hit or miss.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		c.use(e)
		v := e.v
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// use records a hit on e under c.mu. It does not touch the heap: e's
// filed key now trails its priority, and evict re-files it if it comes
// up as the minimum.
func (c *Cache[V]) use(e *entry[V]) {
	c.tick++
	e.freq++
	e.base, e.tick = c.inflation, c.tick
}

// Put writes k's value, evicting the lowest-priority entries when over
// budget. A key of an epoch other than the current one stores nothing.
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
	if k.Epoch != c.epoch.Load() {
		return
	}
	c.puts.Add(1)
	if e, ok := c.items[k]; ok {
		e.v = v
		e.cost = weight(&e.v)
		c.use(e)
		// The new cost may be lower than the filed one: file it now.
		e.filed, e.filedTick = e.priority(), e.tick
		heap.Fix(&c.heap, e.at)
		return
	}
	c.tick++
	e := &entry[V]{k: k, v: v, freq: 1, base: c.inflation, tick: c.tick}
	e.cost = weight(&e.v)
	e.filed, e.filedTick = e.priority(), e.tick
	c.items[k] = e
	heap.Push(&c.heap, e)
	c.evict()
}

// evict drops minimum-priority entries until the cache is within
// budget. A minimum whose filed key is stale (it was hit since it was
// filed) is re-filed under its priority and the heap asked again; a
// filed key never exceeds its entry's priority, so a current minimum
// is the true one.
func (c *Cache[V]) evict() {
	for len(c.heap) > c.capacity {
		e := c.heap[0]
		if p := e.priority(); p != e.filed || e.tick != e.filedTick {
			e.filed, e.filedTick = p, e.tick
			heap.Fix(&c.heap, 0)
			continue
		}
		heap.Pop(&c.heap)
		delete(c.items, e.k)
		c.inflation = e.filed
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
	return len(c.items)
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
	if e, ok := c.items[k]; ok {
		// Read under the lock: a Put on an existing key overwrites the
		// entry's value in place.
		c.use(e)
		v := e.v
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
// published to the cache (unless the cache was invalidated since the
// flight began) and handed to every waiting follower; with
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
