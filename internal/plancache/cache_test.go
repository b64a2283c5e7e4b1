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
	if !c.Enabled() {
		t.Fatal("cache with capacity 8 reports disabled")
	}
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

func TestLRUEviction(t *testing.T) {
	// Capacity 1 forces a single shard of size 1.
	c := New[int](1)
	c.Put(key(1, "a"), 1)
	c.Put(key(2, "b"), 2)
	st := c.Snapshot()
	if st.Entries != 1 || st.Evictions < 1 {
		t.Fatalf("want 1 entry and >=1 eviction after overflow, got %+v", st)
	}
}

func TestLRUPromotion(t *testing.T) {
	// Two entries in one shard of capacity 2: touching the older one
	// must make the other the eviction victim.
	c := New[int](2)
	if len(c.shards) != 1 {
		t.Fatalf("capacity 2 should collapse to one shard, got %d", len(c.shards))
	}
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

func TestDisabledHandle(t *testing.T) {
	c := New[int](0)
	if c.Enabled() {
		t.Fatal("capacity-0 cache reports enabled")
	}
	c.Put(key(1, "a"), 1) // must not panic
	if _, ok := c.Get(key(1, "a")); ok {
		t.Fatal("disabled cache stored an entry")
	}
	a := c.Acquire(key(1, "a"))
	if !a.Leader || a.Hit {
		t.Fatalf("disabled Acquire = %+v, want plain leader", a)
	}
	a.Complete(1, true) // no-op, must not panic
	if c.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
	var nilCache *Cache[int]
	if nilCache.Enabled() || nilCache.Epoch() != 0 || nilCache.Capacity() != 0 {
		t.Fatal("nil cache accessors not nil-safe")
	}
	nilCache.Invalidate()
	_ = nilCache.Snapshot()
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

// TestShards: occupancy sums to Len and evictions are attributed to the
// shard that overflowed.
func TestShards(t *testing.T) {
	c := New[int](8)
	for i := 0; i < 50; i++ {
		c.Put(key(uint64(i)*0x9e3779b97f4a7c15, "q"), i)
	}
	stats := c.Shards()
	if len(stats) == 0 {
		t.Fatal("no shard stats on an enabled cache")
	}
	entries, evictions := 0, int64(0)
	for _, st := range stats {
		entries += st.Entries
		evictions += st.Evictions
	}
	if entries != c.Len() {
		t.Fatalf("shard entries sum %d != Len %d", entries, c.Len())
	}
	if evictions != c.Snapshot().Evictions {
		t.Fatalf("shard evictions sum %d != total %d", evictions, c.Snapshot().Evictions)
	}
	if evictions == 0 {
		t.Fatal("expected evictions after overfilling an 8-entry cache")
	}
	var d *Cache[int]
	if d.Shards() != nil {
		t.Fatal("nil cache Shards() should be nil")
	}
}
