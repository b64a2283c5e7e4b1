package plancache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(fp uint64, canon string) Key {
	return Key{Fingerprint: fp, Canon: canon}
}

func TestGetPut(t *testing.T) {
	c := New[string](8)
	if _, ok := c.Get(key(1, "a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1, "a"), "plan-a")
	v, ok := c.Get(key(1, "a"))
	if !ok || v != "plan-a" {
		t.Fatalf("Get = %q, %v; want plan-a, true", v, ok)
	}
	// Same fingerprint, different canon: a collision must miss.
	if _, ok := c.Get(key(1, "b")); ok {
		t.Fatal("fingerprint collision treated as hit")
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	c := New[int](1)
	c.Put(key(1, "a"), 1)
	c.Put(key(2, "b"), 2)
	st := c.Snapshot()
	if st.Entries != 1 || st.Evictions < 1 {
		t.Fatalf("want 1 entry and >=1 eviction after overflow, got %+v", st)
	}
}

func TestUsePromotes(t *testing.T) {
	// Two entries of one weight in a cache of capacity 2: touching the
	// older one must make the other the eviction victim.
	c := New[int](2)
	c.Put(key(1, "a"), 1)
	c.Put(key(2, "b"), 2)
	if _, ok := c.Get(key(1, "a")); !ok {
		t.Fatal("entry a missing")
	}
	c.Put(key(3, "c"), 3)
	if _, ok := c.Get(key(1, "a")); !ok {
		t.Fatal("recently-used entry a evicted")
	}
	if _, ok := c.Get(key(2, "b")); ok {
		t.Fatal("least-recently-used entry b survived")
	}
}

// has reports whether k is cached without counting or promoting a use.
func (c *Cache[V]) has(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// weighed is a value that knows its cost to the cache.
type weighed uint64

func (w weighed) Weight() uint64 { return uint64(w) }

// TestCostlyEntrySurvivesCheapChurn: an entry a thousand times as
// costly as the rest is not evicted by ten cache-fulls of cheap keys
// each written once — an LRU would drop it after four.
func TestCostlyEntrySurvivesCheapChurn(t *testing.T) {
	const capacity = 4
	c := New[weighed](capacity)
	costly := key(0, "costly")
	c.Put(costly, 1000)
	for i := 1; i <= 10*capacity; i++ {
		c.Put(key(uint64(i), fmt.Sprintf("cheap%d", i)), 1)
	}
	if _, ok := c.Get(costly); !ok {
		t.Fatal("costly entry evicted by one-shot cheap puts")
	}
	if st := c.Snapshot(); st.Entries != capacity || st.Evictions != 10*capacity+1-capacity {
		t.Fatalf("stats = %+v; want %d entries, %d evictions", st, capacity, 10*capacity+1-capacity)
	}
}

// TestIdleCostlyEntryAgesOut: a costly entry that stops being used is
// evicted after a bounded number of puts of other keys, so no entry
// holds its slot for good. It outlives ten cache-fulls of cheap keys,
// which its cost and uses buy it, and is gone within capacity × uses ×
// cost puts: each victim raises the floor new entries start from.
func TestIdleCostlyEntryAgesOut(t *testing.T) {
	const (
		capacity = 4
		cost     = 100
		uses     = 3
		bound    = capacity * uses * cost
	)
	c := New[weighed](capacity)
	costly := key(0, "costly")
	c.Put(costly, cost)
	for i := 1; i < uses; i++ {
		if _, ok := c.Get(costly); !ok {
			t.Fatal("costly entry missing")
		}
	}
	gone := 0
	for i := 1; i <= bound && gone == 0; i++ {
		c.Put(key(uint64(i), fmt.Sprintf("cheap%d", i)), 1)
		if n := c.Len(); n > capacity {
			t.Fatalf("%d entries over a capacity of %d", n, capacity)
		}
		if !c.has(costly) {
			gone = i
		}
	}
	t.Logf("idle costly entry evicted after %d puts", gone)
	if gone == 0 {
		t.Fatalf("idle costly entry still cached after %d puts of other keys", bound)
	}
	if gone <= 10*capacity {
		t.Fatalf("costly entry evicted after %d puts, before %d cheap ones", gone, 10*capacity)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New[int](8)
	k := Key{Fingerprint: 7, Canon: "q", Epoch: c.Epoch()}
	c.Put(k, 42)
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry missing before invalidation")
	}
	c.Invalidate()
	k2 := Key{Fingerprint: 7, Canon: "q", Epoch: c.Epoch()}
	if _, ok := c.Get(k2); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries after Invalidate, want 0", n)
	}
	// A flight begun before the Invalidate hands its value to its
	// followers but stores nothing.
	c.Put(k2, 1)
	old := Key{Fingerprint: 8, Canon: "r", Epoch: c.Epoch()}
	lead, f := c.Acquire(old), c.Acquire(old)
	c.Invalidate()
	lead.Complete(43, true)
	if v, ok, err := f.Wait(context.Background()); v != 43 || !ok || err != nil {
		t.Fatalf("follower of a pre-Invalidate flight = %d, %v, %v; want 43, true, nil", v, ok, err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries after a pre-Invalidate flight completed, want 0", n)
	}
}

func TestScopeSeparation(t *testing.T) {
	c := New[int](8)
	a := Key{Fingerprint: 7, Canon: "q", Scope: 1}
	b := Key{Fingerprint: 7, Canon: "q", Scope: 2}
	c.Put(a, 1)
	if _, ok := c.Get(b); ok {
		t.Fatal("entry leaked across scopes")
	}
}

// TestDisabledHandle: the nil cache is the disabled one — every
// operation is a no-op and Acquire hands out a plain leader — and New
// refuses a capacity that would store nothing.
func TestDisabledHandle(t *testing.T) {
	var c *Cache[int]
	c.Put(key(1, "a"), 1) // must not panic
	if _, ok := c.Get(key(1, "a")); ok {
		t.Fatal("nil cache stored an entry")
	}
	a := c.Acquire(key(1, "a"))
	if !a.Leader || a.Hit {
		t.Fatalf("nil-cache Acquire = %+v, want plain leader", a)
	}
	a.Complete(1, true) // no-op, must not panic
	if v, ok, err := a.Wait(context.Background()); v != 0 || ok || err != nil {
		t.Fatalf("nil-cache leader Wait = %d, %v, %v", v, ok, err)
	}
	if c.Len() != 0 || c.Epoch() != 0 || c.Capacity() != 0 || c.Invalidate() != 0 {
		t.Fatal("nil cache accessors not nil-safe")
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Fatalf("nil cache Snapshot = %+v", st)
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New[int](n)
		}()
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New[string](8)
	k := key(9, "q")

	lead := c.Acquire(k)
	if !lead.Leader || lead.Hit {
		t.Fatalf("first acquire not a leader: %+v", lead)
	}

	const followers = 8
	var wg sync.WaitGroup
	var shared atomic.Int64
	for i := 0; i < followers; i++ {
		f := c.Acquire(k)
		if f.Leader || f.Hit {
			t.Fatalf("concurrent acquire %d not a follower: %+v", i, f)
		}
		wg.Add(1)
		go func(f *Acquired[string]) {
			defer wg.Done()
			v, ok, err := f.Wait(context.Background())
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			if ok && v == "result" {
				shared.Add(1)
			}
		}(f)
	}
	lead.Complete("result", true)
	wg.Wait()
	if got := shared.Load(); got != followers {
		t.Fatalf("%d/%d followers adopted the shared result", got, followers)
	}
	if v, ok := c.Get(k); !ok || v != "result" {
		t.Fatal("shared result not cached")
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.FlightWaits != followers || st.FlightShared != followers {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightNoShare(t *testing.T) {
	c := New[string](8)
	k := key(9, "q")
	lead := c.Acquire(k)
	f := c.Acquire(k)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, ok, err := f.Wait(context.Background())
		if ok || err != nil {
			t.Errorf("no-share wait = ok=%v err=%v, want released empty", ok, err)
		}
	}()
	lead.Complete("", false)
	<-done
	if _, ok := c.Get(k); ok {
		t.Fatal("unshared result was cached")
	}
	// The flight is gone: the next acquire leads again.
	if a := c.Acquire(k); !a.Leader {
		t.Fatal("flight not cleared after no-share completion")
	}
}

func TestSingleflightCompleteIdempotent(t *testing.T) {
	c := New[string](8)
	k := key(9, "q")
	lead := c.Acquire(k)
	lead.Complete("first", true)
	lead.Complete("second", true) // must not panic (double close) or overwrite
	if v, _ := c.Get(k); v != "first" {
		t.Fatalf("second Complete overwrote: %q", v)
	}
}

func TestWaitCancellation(t *testing.T) {
	c := New[string](8)
	k := key(9, "q")
	_ = c.Acquire(k) // leader never completes
	f := c.Acquire(k)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, ok, err := f.Wait(ctx)
	if ok || err == nil {
		t.Fatalf("cancelled wait = ok=%v err=%v, want context error", ok, err)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// Hammer a small cache from many goroutines: correctness is "no
	// race, no panic, flights always resolve" (run under -race in CI).
	c := New[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(uint64(i%40), fmt.Sprintf("q%d", i%40))
				a := c.Acquire(k)
				switch {
				case a.Hit:
				case a.Leader:
					a.Complete(i, i%3 != 0)
				default:
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					if _, _, err := a.Wait(ctx); err != nil {
						t.Errorf("goroutine %d: wait: %v", g, err)
					}
					cancel()
				}
				if i%7 == 0 {
					c.Put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache over budget: %d entries", n)
	}
}

// TestExactBudget: the capacity is one budget over every key, whatever
// the keys' fingerprints. 32 keys of one weight sharing one fingerprint
// all fit a 32-entry cache, and the 33rd Put evicts the least recently
// used of them: the oldest key was just read, so the second-oldest goes.
func TestExactBudget(t *testing.T) {
	const capacity = 32
	c := New[int](capacity)
	k := func(i int) Key { return key(0xfeed, fmt.Sprintf("q%d", i)) }
	for i := 0; i < capacity; i++ {
		c.Put(k(i), i)
	}
	if st := c.Snapshot(); st.Entries != capacity || st.Evictions != 0 {
		t.Fatalf("after %d puts of one fingerprint: %d entries, %d evictions; want %d, 0",
			capacity, st.Entries, st.Evictions, capacity)
	}
	if _, ok := c.Get(k(0)); !ok {
		t.Fatal("oldest key missing before overflow")
	}
	c.Put(k(capacity), capacity)
	if st := c.Snapshot(); st.Entries != capacity || st.Evictions != 1 {
		t.Fatalf("after the overflowing put: %d entries, %d evictions; want %d, 1",
			st.Entries, st.Evictions, capacity)
	}
	for i := 0; i <= capacity; i++ {
		if _, ok := c.Get(k(i)); ok != (i != 1) {
			t.Errorf("key %d cached = %v; only key 1 (the least recently used) should be gone", i, ok)
		}
	}
}
