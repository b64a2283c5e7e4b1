// Command bench is the repository's one benchmark: four workloads over
// the optimizer as a library and as a service, every answer checked,
// every metric printed by name with its unit and sample count, and a
// separate traced run that attributes time to single layers. See
// README.md in this directory and BENCHMARK.json at the checkout root.
//
//	bash bench/run.sh --workload serve_warm --seed 101 --seconds 10 --trace 0
//	go run -C bench . -workload all -seed 101
//	go run -C bench . -workload all -trace 1
//	go run -C bench . -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outcome is what one run of one workload produced.
type outcome struct {
	Attempted, Failed int
	// Err is the first failed operation, if any.
	Err     error
	Metrics map[string]sample
	Gate    gateResult
	Notes   []string
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(cfg config) (*outcome, error) {
	if cfg.Trace {
		return runTraced(cfg)
	}
	switch cfg.Workload.Name {
	case "search_cold":
		return runSearchCold(cfg)
	case "exec_plans":
		return runExecPlans(cfg)
	default:
		return runServe(cfg)
	}
}

// hostLine describes where the numbers were taken; it is printed with
// every result because none of them means anything without it.
func hostLine(root string) string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// printOutcome writes the human-readable table, then the result line.
func printOutcome(cfg config, out *outcome) error {
	kind := "end-to-end"
	if cfg.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("workload %s seed %d: %s metrics, %.1fs timed\n", cfg.Workload.Name, cfg.Seed, kind, cfg.Seconds)
	fmt.Println(hostLine(cfg.Root))
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	res := result{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	for _, name := range names {
		s := out.Metrics[name]
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
		fmt.Printf("  %-34s %16.4f %-6s n=%d\n", name, s.Value, s.Unit, s.N)
		res.Metrics[name] = metricValue{s.Value, s.Unit}
	}
	fmt.Printf("  gate: %d answers checked, %d executed against the naive interpreter, %d of those non-empty\n",
		out.Gate.Checked, out.Gate.Executed, out.Gate.NonEmpty)
	fmt.Printf("  operations: %d attempted, %d failed (fail_ratio %.6f)\n",
		out.Attempted, out.Failed, float64(out.Failed)/float64(max(out.Attempted, 1)))
	for _, n := range out.Notes {
		fmt.Println("  " + n)
	}
	if out.Err != nil {
		fmt.Println("  first failure:", out.Err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "all", "search_cold, serve_warm, serve_churn, exec_plans, or all")
		seed    = flag.Int64("seed", 101, "workload seed: where the request cycle starts, the order programs run in, the rows the gate executes on (202 is the hold-out)")
		seconds = flag.Float64("seconds", 20, "length of the timed region of each run (BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1 runs the traced, in-process variant and prints the per-layer metrics")
		aa      = flag.Bool("aa", false, "run every workload twice on the same code and compare the end-to-end metrics against their bounds")
		spread  = flag.Int("spread", 0, "run every workload on this many seeds and print each end-to-end metric's quartile spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	base := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Root: root,
		OutDir: filepath.Join(root, "bench", "out"), BinDir: filepath.Join(root, ".bench_build", "bin"),
		Warmup: 2,
	}
	switch {
	case *aa:
		return runAA(base)
	case *spread > 0:
		return runSpread(base, *spread)
	case *name == "all":
		for _, wl := range workloads {
			if _, err := runSelf(base, wl.Name, base.Seed); err != nil {
				return err
			}
		}
		return nil
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	base.Workload = wl

	// A signal must not leave an optserve child behind: children are
	// started with a parent-death signal, so exiting is enough.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		os.Exit(130)
	}()

	begun := time.Now()
	out, err := runWorkload(base)
	if err != nil {
		return err
	}
	if err := printOutcome(base, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs\n", wl.Name, time.Since(begun).Seconds())
	if out.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed: %v", out.Failed, out.Attempted, out.Err)
	}
	return nil
}
