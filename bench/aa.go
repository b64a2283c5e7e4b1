package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the A/A tooling: it reruns the benchmark as the driver
// does — one fresh process per (workload, seed), the last line of its
// output parsed — and judges the end-to-end metrics by the bounds
// BENCHMARK.json fixes.

// benchSpec is the part of BENCHMARK.json the runner and its smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runSelf runs one workload in a fresh process of this binary, relays
// its output, and returns the parsed result line.
func runSelf(base config, name string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if base.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(base.Seconds, 'g', -1, 64), "-trace", trace)
	cmd.Dir = base.Root
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	last := ""
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return &res, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the full set twice on the same seed. Two runs of one
// program differ only by noise, so any end-to-end metric further apart
// than its bound means the bound cannot tell a regression from noise.
func runAA(base config) error {
	spec, err := loadSpec(base.Root)
	if err != nil {
		return err
	}
	var report []string
	bad := 0
	for _, wl := range workloads {
		a, err := runSelf(base, wl.Name, base.Seed)
		if err != nil {
			return err
		}
		b, err := runSelf(base, wl.Name, base.Seed)
		if err != nil {
			return err
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(worsening(m, va, vb))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "OUT OF BOUND"
				bad++
			}
			report = append(report, fmt.Sprintf("%-12s %-20s %14.4f %14.4f %-6s diff %6.2f%% bound %5.1f%% %s",
				wl.Name, m.Name, va, vb, m.Unit, 100*diff, 100*m.Bound, verdict))
		}
	}
	fmt.Printf("\nA/A at seed %d, %.0fs runs\n%s\n", base.Seed, base.Seconds, strings.Join(report, "\n"))
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runSpread runs every workload on n consecutive seeds and prints each
// end-to-end metric's interquartile distance as a share of its median.
// The driver accepts a spread within the bound; aim below a third of it.
func runSpread(base config, n int) error {
	if n < 2 {
		return fmt.Errorf("-spread needs at least 2 seeds")
	}
	spec, err := loadSpec(base.Root)
	if err != nil {
		return err
	}
	var report []string
	bad := 0
	for _, wl := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runSelf(base, wl.Name, base.Seed+int64(i))
			if err != nil {
				return err
			}
			for _, m := range spec.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
		}
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not judged"
			case spread > m.Bound:
				verdict = "OUT OF BOUND"
				bad++
			case spread > m.Bound/3:
				verdict = "above a third of the bound"
			}
			report = append(report, fmt.Sprintf("%-12s %-20s median %14.4f %-6s spread %6.2f%% bound %5.1f%% %s",
				wl.Name, m.Name, q2, m.Unit, 100*spread, 100*m.Bound, verdict))
		}
	}
	fmt.Printf("\nquartile spread over seeds %d..%d, %.0fs runs\n%s\n", base.Seed, base.Seed+int64(n)-1, base.Seconds, strings.Join(report, "\n"))
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", bad)
	}
	return nil
}
