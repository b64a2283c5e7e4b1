package volcano

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
)

// BatchItem is one independent optimization job: a rule set, a query
// tree, and the required physical properties. Items may share a RuleSet
// (its dispatch index is built once and read-only afterwards); each job
// gets its own memo and optimizer.
type BatchItem struct {
	RS   *RuleSet
	Tree *core.Expr
	Req  *core.Descriptor // nil: no requirement
	Opts Options
	// Timeout bounds each optimization of this item (0 = none). It is
	// merged into Opts.Budget.Timeout (the tighter of the two wins), so
	// hitting it yields a degraded plan, not an error — see Budget.
	Timeout time.Duration
	// Repeats re-optimizes the item this many times (minimum 1) on fresh
	// memos, reporting the mean elapsed time — the paper's §4.3 protocol
	// of timing a query by optimizing in a loop and dividing.
	Repeats int
}

// options resolves the item's effective optimizer options, folding the
// per-item Timeout into the budget.
func (it BatchItem) options() Options {
	opts := it.Opts
	if it.Timeout > 0 && (opts.Budget.Timeout <= 0 || it.Timeout < opts.Budget.Timeout) {
		opts.Budget.Timeout = it.Timeout
	}
	return opts
}

// BatchResult is the outcome of one BatchItem. On error, Stats describe
// the failing run's partial work and Elapsed is the mean over the
// attempts actually made; a panicking rule hook surfaces here as Err.
type BatchResult struct {
	Plan  *PExpr
	Stats *Stats
	// Rendering is the item's Optimizer.Rendering (nil on error).
	Rendering *Rendering
	Elapsed   time.Duration // mean per optimization when Repeats > 1
	Err       error
}

// OptimizeBatch optimizes independent queries concurrently on a worker
// pool (workers <= 0 uses GOMAXPROCS). Results are positionally aligned
// with items. Each worker runs a private Optimizer per item, so the only
// shared state is the read-only RuleSet; the experiment sweeps use this
// to spread a figure's (family, N, seed) grid across cores.
func OptimizeBatch(items []BatchItem, workers int) []BatchResult {
	return OptimizeBatchContext(context.Background(), items, workers)
}

// OptimizeBatchContext is OptimizeBatch under a batch-level context:
// once ctx is cancelled, items not yet started fail fast with ctx's
// error, and items in flight degrade per OptimizeContext. The call
// always returns a fully-populated, positionally-aligned result slice.
func OptimizeBatchContext(ctx context.Context, items []BatchItem, workers int) []BatchResult {
	results, _ := OptimizeBatchOpts(ctx, items, BatchOptions{Workers: workers})
	return results
}

// BatchOptions tunes a batch run beyond the per-item options.
type BatchOptions struct {
	// Workers sizes the pool (<= 0 uses GOMAXPROCS, capped at the item
	// count).
	Workers int
	// Obs attaches shared observability sinks: batch-level counters and
	// latency histograms go to Obs.Metrics (recorded concurrently by
	// every worker), and items that don't set their own Opts.Obs
	// inherit this one — with per-worker trace rows when a Tracer is
	// attached.
	Obs *obs.Observer
	// Cache attaches a shared cross-query plan cache to every item that
	// doesn't set its own Opts.Cache: repeated queries across the batch
	// hit, and concurrent workers missing on the same fingerprint
	// collapse into one search (singleflight).
	Cache *PlanCache
}

// WorkerStats aggregates one pool worker's activity.
type WorkerStats struct {
	Items int           // items this worker ran
	Busy  time.Duration // time spent inside runBatchItem
}

// BatchReport aggregates a batch run: wall time, per-worker
// utilization, queue waits (time an item sat assigned-but-unstarted
// behind earlier work), degradations by cause, and the Merge of every
// item's Stats.
type BatchReport struct {
	Wall    time.Duration
	Workers []WorkerStats
	// QueueWaitTotal sums each item's wait from batch start to pickup;
	// QueueWaitMax is the worst item's.
	QueueWaitTotal time.Duration
	QueueWaitMax   time.Duration
	Items          int
	Errors         int
	Degraded       int
	// Agg is the Stats.Merge of every item that produced stats.
	Agg *Stats
}

// Utilization reports worker w's busy fraction of the batch wall time.
func (r *BatchReport) Utilization(w int) float64 {
	if r.Wall <= 0 || w < 0 || w >= len(r.Workers) {
		return 0
	}
	return float64(r.Workers[w].Busy) / float64(r.Wall)
}

// String renders a compact multi-line report.
func (r *BatchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch: %d items, %d workers, wall %v, errors=%d degraded=%d\n",
		r.Items, len(r.Workers), r.Wall.Round(time.Microsecond), r.Errors, r.Degraded)
	for i, w := range r.Workers {
		fmt.Fprintf(&b, "  worker %d: %d items, busy %v (%.0f%% utilization)\n",
			i, w.Items, w.Busy.Round(time.Microsecond), 100*r.Utilization(i))
	}
	mean := time.Duration(0)
	if r.Items > 0 {
		mean = r.QueueWaitTotal / time.Duration(r.Items)
	}
	fmt.Fprintf(&b, "  queue wait: mean %v, max %v\n",
		mean.Round(time.Microsecond), r.QueueWaitMax.Round(time.Microsecond))
	if r.Agg != nil && len(r.Agg.DegradedRuns) > 0 {
		causes := make([]string, 0, len(r.Agg.DegradedRuns))
		for c := range r.Agg.DegradedRuns {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		b.WriteString("  degradations:")
		for _, c := range causes {
			fmt.Fprintf(&b, " %s=%d", c, r.Agg.DegradedRuns[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OptimizeBatchOpts is the fully-instrumented batch entry point: it
// returns the positionally-aligned results plus a BatchReport of
// per-worker utilization, queue waits, and aggregated statistics.
func OptimizeBatchOpts(ctx context.Context, items []BatchItem, bo BatchOptions) ([]BatchResult, *BatchReport) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := bo.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]BatchResult, len(items))
	report := &BatchReport{Workers: make([]WorkerStats, workers), Agg: NewStats()}
	if len(items) == 0 {
		return results, report
	}
	reg := bo.Obs.MetricsOrNil()
	tr := bo.Obs.TracerOrNil()
	start := time.Now()
	// The queue is buffered with every index up front so no goroutine
	// ever blocks feeding it: a worker that dies cannot wedge the batch.
	// (Workers additionally recover per-item panics — see runBatchItem —
	// so a panicking rule hook costs one item, not the whole pool.)
	next := make(chan int, len(items))
	for i := range items {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	wg.Add(workers)
	waits := make([]time.Duration, len(items))
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			tid := w + 1
			if tr != nil {
				tr.SetThreadName(tid, fmt.Sprintf("worker-%d", w))
			}
			ws := &report.Workers[w]
			for i := range next {
				pickup := time.Now()
				waits[i] = pickup.Sub(start)
				reg.Histogram("prairie_batch_queue_wait_seconds", nil).Observe(waits[i].Seconds())
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Err: err}
					ws.Items++
					continue
				}
				it := items[i]
				if it.Opts.Obs == nil {
					it.Opts.Obs = bo.Obs
					it.Opts.TraceTID = tid
				}
				if it.Opts.Cache == nil {
					it.Opts.Cache = bo.Cache
				}
				results[i] = runBatchItem(ctx, it)
				busy := time.Since(pickup)
				ws.Items++
				ws.Busy += busy
				reg.Counter("prairie_batch_items_total").Inc()
				reg.Histogram("prairie_batch_item_seconds", nil).Observe(busy.Seconds())
				reg.FloatCounter(obs.Label("prairie_batch_worker_busy_seconds_total", "worker", fmt.Sprint(w))).Add(busy.Seconds())
			}
		}(w)
	}
	wg.Wait()
	report.Wall = time.Since(start)
	report.Items = len(items)
	for _, d := range waits {
		report.QueueWaitTotal += d
		if d > report.QueueWaitMax {
			report.QueueWaitMax = d
		}
	}
	for i := range results {
		if results[i].Err != nil {
			report.Errors++
		}
		if s := results[i].Stats; s != nil {
			if s.Degraded {
				report.Degraded++
			}
			report.Agg.Merge(s)
		}
	}
	if reg != nil {
		for w := range report.Workers {
			reg.Gauge(obs.Label("prairie_batch_worker_utilization", "worker", fmt.Sprint(w))).
				Set(report.Utilization(w))
		}
		reg.Counter("prairie_batch_errors_total").Add(int64(report.Errors))
		reg.Counter("prairie_batch_degraded_total").Add(int64(report.Degraded))
	}
	return results, report
}

func runBatchItem(ctx context.Context, it BatchItem) (res BatchResult) {
	repeats := it.Repeats
	if repeats < 1 {
		repeats = 1
	}
	start := time.Now()
	attempts := 0
	var opt *Optimizer
	defer func() {
		if r := recover(); r != nil {
			res = BatchResult{Err: fmt.Errorf("volcano: batch item panicked: %v", r)}
			if opt != nil {
				res.Stats = opt.Stats
			}
		}
		// Error, panic, and success paths all report the mean elapsed
		// time over the attempts actually made, never zero work-time for
		// work that was done.
		if res.Elapsed == 0 {
			if attempts < 1 {
				attempts = 1
			}
			res.Elapsed = time.Since(start) / time.Duration(attempts)
		}
	}()
	opts := it.options()
	for r := 0; r < repeats; r++ {
		attempts = r + 1
		opt = NewOptimizer(it.RS)
		opt.Opts = opts
		plan, err := opt.OptimizeContext(ctx, it.Tree.Clone(), it.Req)
		if err != nil {
			res = BatchResult{Stats: opt.Stats, Err: err}
			return
		}
		res.Plan, res.Stats, res.Rendering = plan, opt.Stats, opt.Rendering
	}
	return
}
