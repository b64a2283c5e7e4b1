package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// NewMux builds the exposition surface: Prometheus text at /metrics,
// the standard net/http/pprof handlers under /debug/pprof/, and — when
// fr is not nil — the retained request records
// at /v1/debug/requests (index) and /v1/debug/requests/{id} (full
// record).
func NewMux(reg *Registry, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if fr != nil {
		mux.HandleFunc("/v1/debug/requests", fr.handleIndex)
		mux.HandleFunc("/v1/debug/requests/", fr.handleGet)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "prairie observability endpoints:")
		fmt.Fprintln(w, "  /metrics")
		fmt.Fprintln(w, "  /debug/pprof/")
		if fr != nil {
			fmt.Fprintln(w, "  /v1/debug/requests")
		}
	})
	return mux
}
