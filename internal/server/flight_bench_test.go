package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"prairie/internal/obs"
)

// benchOptimizeHTTP drives one optimize request per iteration straight
// through the server's handler (no sockets: the measure is the serving
// path, not the kernel). The cache is disabled in the guard configs so
// every iteration pays for a real search — the recorder's cost is
// judged against genuine optimization work, like the other guards.
func benchOptimizeHTTP(b *testing.B, srv *Server, body []byte) {
	b.Helper()
	b.ReportAllocs()
	h := srv.Handler()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, r)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}

// BenchmarkFlightGuard backs `make flight-guard`: the same serving
// workload with the flight recorder absent ("off"), attached but
// zero-capacity ("disabled" — one Enabled() branch, Begin returns nil,
// every downstream hook is a nil no-op), and fully recording beside a
// metrics registry ("on", informational). The guard target
// fails the build if disabled drifts more than ~2% from off. Workloads
// are the longest figure points so the bar clears scheduler noise.
func BenchmarkFlightGuard(b *testing.B) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		b.Fatal(err)
	}
	newSrv := func(cfg Config) *Server {
		cfg.Registry = reg
		cfg.CacheSize = -1
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	for _, wl := range []struct {
		name, family string
		n            int
	}{
		{"fig11", "E2", 4},
		{"fig13", "E4", 3},
	} {
		body, err := json.Marshal(OptimizeRequest{
			Ruleset: "oodb/volcano",
			Query:   QuerySpec{Family: wl.family, N: wl.n},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.name+"/off", func(b *testing.B) {
			benchOptimizeHTTP(b, newSrv(Config{}), body)
		})
		b.Run(wl.name+"/disabled", func(b *testing.B) {
			benchOptimizeHTTP(b, newSrv(Config{
				Flight: obs.NewFlightRecorderObserved(obs.FlightConfig{}, nil),
			}), body)
		})
		b.Run(wl.name+"/on", func(b *testing.B) {
			m := obs.NewRegistry()
			benchOptimizeHTTP(b, newSrv(Config{
				Obs:    &obs.Observer{Metrics: m},
				Flight: obs.NewFlightRecorderObserved(obs.FlightConfig{Capacity: 512}, m),
			}), body)
		})
	}
}
