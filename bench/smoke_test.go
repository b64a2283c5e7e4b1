package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs all four workloads, untraced and traced, at a scale of
// a few programs and a fraction of a second each, and holds the runner
// to BENCHMARK.json: the same workloads with the same reasons, and from
// every run exactly the metrics the file names, finite and in the unit
// it states. The JSON and the runner cannot drift apart unnoticed.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the runner %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}

	base := config{
		Seed: 101, Seconds: 0.3, Root: root,
		OutDir: t.TempDir(), BinDir: filepath.Join(root, ".bench_build", "bin"),
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := base
			cfg.Workload, cfg.Trace = wl.shrunk(2), traced
			want, label := spec.EndToEnd, wl.Name
			if traced {
				want, label = spec.PerLayer, wl.Name+" traced"
			}
			began := time.Now()
			out, err := runWorkload(cfg)
			t.Logf("%s: %.2fs", label, time.Since(began).Seconds())
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			if out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s: %d of %d operations failed: %v", label, out.Failed, out.Attempted, out.Err)
			}
			if out.Gate.Checked != len(cfg.Workload.Pool) {
				t.Errorf("%s: gate checked %d of %d answers", label, out.Gate.Checked, len(cfg.Workload.Pool))
			}
			for _, m := range want {
				s, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s is in BENCHMARK.json but was not emitted", label, m.Name)
				case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
					t.Errorf("%s: metric %s = %v is not finite", label, m.Name, s.Value)
				case s.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, s.Unit, m.Unit)
				}
			}
			if len(out.Metrics) != len(want) {
				for name := range out.Metrics {
					if !seen[name] {
						t.Errorf("%s: metric %s was emitted but is not in BENCHMARK.json", label, name)
					}
				}
				t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", label, len(out.Metrics), len(want))
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
