package plancache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// epochVal tags a cached value with the epoch and canon of the key it
// was written under, so readers can detect a stale or cross-key serve.
// Its cost varies by key, so evictions weigh entries unequally.
type epochVal struct {
	epoch uint64
	canon string
	cost  uint64
}

func (v epochVal) Weight() uint64 { return v.cost }

// TestEpochInvalidationStress (run with -race): Get/Put/Acquire/Wait
// traffic from many goroutines, each of which invalidates the cache on
// every invalEvery-th of its operations, between building its key and
// using it, so the epoch moves under the other goroutines' keys and
// under its own. The invariant under all interleavings: a hit — whether
// from Get, an Acquire hit, or a follower adopting a leader's result —
// only ever returns a value written under the exact epoch and canon of
// the requesting key. An entry from before an Invalidate must never
// satisfy a key built after it, and a Put under an old key stores
// nothing. Keys cost 1 to 301, so the eviction order mixes recency, use
// counts and costs.
func TestEpochInvalidationStress(t *testing.T) {
	const (
		capacity   = 16
		workers    = 8
		keys       = 32
		iters      = 5000
		invalEvery = 200
	)
	c := New[epochVal](capacity)

	var stale, served, puts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				kidx := rng.Intn(keys)
				canon := fmt.Sprintf("q%d", kidx)
				cost := uint64(1 + kidx%4*100)
				// The key is built from the epoch as read now — exactly
				// the engine's protocol. The invalidator may bump the
				// epoch at any point after this line.
				e := c.Epoch()
				k := Key{Fingerprint: uint64(kidx), Canon: canon, Epoch: e}
				if i%invalEvery == invalEvery-1 {
					c.Invalidate()
				}
				check := func(v epochVal) {
					served.Add(1)
					if v.epoch != e || v.canon != canon {
						stale.Add(1)
					}
				}
				switch rng.Intn(3) {
				case 0:
					if v, ok := c.Get(k); ok {
						check(v)
					}
				case 1:
					puts.Add(1)
					c.Put(k, epochVal{epoch: e, canon: canon, cost: cost})
				default:
					a := c.Acquire(k)
					switch {
					case a.Hit:
						check(a.Value)
					case a.Leader:
						// Occasionally decline to share, as a degraded
						// search would.
						share := rng.Intn(4) != 0
						if share {
							puts.Add(1)
						}
						a.Complete(epochVal{epoch: e, canon: canon, cost: cost}, share)
					default:
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						v, ok, err := a.Wait(ctx)
						cancel()
						if err != nil {
							t.Errorf("follower wait: %v", err)
						} else if ok {
							// The flight's key includes the epoch, so the
							// leader computed under the same e and canon.
							check(v)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := stale.Load(); got != 0 {
		t.Fatalf("%d stale or cross-key values served (of %d hits)", got, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("stress produced no hits at all; the schedule is not exercising the cache")
	}
	if n := c.Len(); n > capacity {
		t.Errorf("cache holds %d entries, capacity %d", n, capacity)
	}
	snap := c.Snapshot()
	t.Logf("counters: %+v", snap)
	if snap.Hits == 0 || snap.Misses == 0 || snap.Puts == 0 || snap.Evictions == 0 {
		t.Errorf("counters did not move: %+v", snap)
	}
	if want := uint64(workers * (iters / invalEvery)); snap.Epoch < want {
		t.Errorf("epoch %d after the run, want at least %d invalidations", snap.Epoch, want)
	}
	if snap.Puts >= puts.Load() {
		t.Errorf("%d of %d Puts stored: none under an old epoch was dropped", snap.Puts, puts.Load())
	}
}
