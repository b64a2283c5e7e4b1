package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// The host this benchmark was written on changes speed by itself: an
// idle two-vCPU guest ran a pure CPU loop anywhere between 250 and 380
// iterations a second over two minutes, and ten 20 s runs of identical
// work (equal allocation counts to seven digits) spread by 8% in a quiet
// spell and by 38% in a noisy one. No median over a run removes a drift
// slower than the run. So every run also times a fixed kernel, in
// slices spread through the timed region, and reports its time metrics
// at nominal host speed: each latency multiplied by nominalKernelUS / the
// kernel time of the latest slice. On identical code that cut the worst
// seed-to-seed range of search_cold's typical latency from ±17% to ±7%.
// What the slices saw is printed with every result.

// nominalKernelUS is the kernel's median time on the reference host
// (Xeon @ 2.1 GHz, go1.24) in a quiet spell. It only fixes the unit:
// comparisons between two commits divide it out.
const nominalKernelUS = 29.0

// kernelsPerSlice kernel runs make one slice (about 3 ms); a slice's
// median is one sample of the host's speed.
const kernelsPerSlice = 100

// calibSink keeps the kernel's results alive.
var calibSink int

// kernel is a fixed piece of single-threaded work with an optimizer's
// instruction mix: map updates, a sort, pointer chasing over freshly
// allocated nodes.
func kernel() {
	m := make(map[int]int, 256)
	xs := make([]int, 1024)
	for i := range xs {
		xs[i] = (i * 7919) & 1023
		m[xs[i]&255] += i
	}
	sort.Ints(xs)
	type node struct {
		next *node
		v    int
	}
	var head *node
	for i := 0; i < 256; i++ {
		head = &node{head, xs[i]}
	}
	for n := head; n != nil; n = n.next {
		calibSink += n.v
	}
	calibSink += len(m)
}

// kernelSlice times one slice and returns its median kernel time in µs.
func kernelSlice() float64 {
	ts := make([]float64, kernelsPerSlice)
	for i := range ts {
		t0 := time.Now()
		kernel()
		ts[i] = us(time.Since(t0))
	}
	return median(ts)
}

// atNominalSpeed scales a duration measured while the kernel took
// kernelUS to what it would have been at nominal host speed.
func atNominalSpeed(measured, kernelUS float64) float64 {
	return measured * nominalKernelUS / kernelUS
}

// sliceEvery is the time between two calibration slices.
const sliceEvery = 500 * time.Millisecond

// calibrator follows the host's speed through a timed region: a slice
// every sliceEvery, taken either inline by the measuring goroutine
// (tick, between operations) or by a goroutine of its own beside
// concurrent clients (run). Each latency is scaled by the latest slice
// as it is recorded, so a slow spell inside a run is corrected where it
// happened and does not lift the run's upper percentiles; the region's
// length at nominal speed is integrated the same way.
type calibrator struct {
	// inline slices stop the measuring goroutine, so their own time and
	// allocations are kept out of the region; concurrent ones are not.
	inline bool
	cur    atomic.Uint64 // Float64bits of the latest slice's kernel time, µs

	// Owned by the goroutine that takes the slices.
	slices  []float64
	since   time.Time     // start of the stretch the latest slice governs
	nominal time.Duration // region time so far, at nominal speed
	mallocs uint64        // heap allocations of the inline slices
}

// newCalibrator takes the first slice; the region starts when it returns.
func newCalibrator(inline bool) *calibrator {
	c := &calibrator{inline: inline}
	c.take()
	return c
}

// take closes the stretch the previous slice governed and opens one
// with a new slice.
func (c *calibrator) take() {
	began := time.Now()
	c.close(began)
	var m0, m1 runtime.MemStats
	if c.inline {
		runtime.ReadMemStats(&m0)
	}
	k := kernelSlice()
	c.slices = append(c.slices, k)
	c.cur.Store(math.Float64bits(k))
	if c.inline {
		runtime.ReadMemStats(&m1)
		c.mallocs += m1.Mallocs - m0.Mallocs
		c.since = time.Now()
	} else {
		c.since = began
	}
}

// close adds the stretch since the latest slice to the nominal time.
func (c *calibrator) close(now time.Time) {
	if len(c.slices) > 0 {
		c.nominal += time.Duration(atNominalSpeed(float64(now.Sub(c.since)), c.slices[len(c.slices)-1]))
	}
}

// scale brings a latency measured just now to nominal host speed.
func (c *calibrator) scale(d time.Duration) float64 {
	return atNominalSpeed(us(d), math.Float64frombits(c.cur.Load()))
}

// tick takes a slice if one is due (inline use).
func (c *calibrator) tick() {
	if time.Since(c.since) >= sliceEvery {
		c.take()
	}
}

// run takes slices until stop is closed, then ends the region; done is
// closed when it has returned (concurrent use).
func (c *calibrator) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(sliceEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			c.close(time.Now())
			return
		case <-t.C:
			c.take()
		}
	}
}

// note says what the correction saw.
func (c *calibrator) note(wall time.Duration) string {
	asc := sorted(c.slices)
	return fmt.Sprintf("calibration kernel: median %.2f us, range %.2f to %.2f over %d slices (nominal %.2f); %.2fs measured = %.2fs at nominal host speed",
		quantile(asc, 0.5), asc[0], asc[len(asc)-1], len(asc), nominalKernelUS, wall.Seconds(), c.nominal.Seconds())
}
