package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewMux builds the exposition surface: Prometheus text at /metrics, a
// JSON snapshot at /vars, the standard net/http/pprof handlers under
// /debug/pprof/, when a tracer is attached the current span buffer in
// Chrome trace_event format at /trace, and — when an enabled flight
// recorder is attached — the retained request records at
// /v1/debug/requests (index) and /v1/debug/requests/{id} (full record).
func NewMux(reg *Registry, tr *Tracer, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tr != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tr.WriteChrome(w)
		})
	}
	if fr.Enabled() {
		mux.HandleFunc("/v1/debug/requests", fr.handleIndex)
		mux.HandleFunc("/v1/debug/requests/", fr.handleGet)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "prairie observability endpoints:")
		for _, p := range []string{"/metrics", "/vars", "/debug/pprof/"} {
			fmt.Fprintln(w, "  "+p)
		}
		if tr != nil {
			fmt.Fprintln(w, "  /trace")
		}
		if fr.Enabled() {
			fmt.Fprintln(w, "  /v1/debug/requests")
		}
	})
	return mux
}

// Serve starts an HTTP server for h on addr (":0" picks a free port)
// and returns the bound address plus a closer. The server runs until
// closed; serve errors after Close are discarded.
func Serve(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
