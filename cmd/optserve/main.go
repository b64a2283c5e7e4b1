// Command optserve runs the optimizer as an HTTP/JSON service (see
// internal/server): /v1/optimize over a registry of prepared rule sets,
// one admitted request per query, with per-request budget classes, a
// shared cross-query plan cache, admission control (429/503 +
// Retry-After load shedding), per-request timeouts, and the
// observability surface of internal/obs (/metrics, /debug/pprof/,
// /healthz, and the per-request flight recorder on /v1/debug/requests).
//
// Usage:
//
//	optserve -addr :8080
//	optserve -addr :8080 -dsl examples/dslrules/rules.prairie
//	optserve -addr :8080 -max-inflight 8 -max-queue 32 -queue-wait 100ms
//
//	curl -s localhost:8080/v1/rulesets
//	curl -s localhost:8080/v1/optimize -d '{
//	  "ruleset": "oodb/volcano",
//	  "query":   {"family": "E2", "n": 3},
//	  "budget":  "interactive"
//	}'
//
// SIGINT/SIGTERM drain gracefully: new requests are refused with 503
// while every in-flight optimization is answered, then the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"prairie/internal/obs"
	"prairie/internal/server"
)

// gcPercent is the collector's target unless GOGC is set. The server's
// live heap is small (worlds, cache entries, flight records), so at the
// runtime's default of 100 it collects often. On 2 vCPUs, one 20 s
// serve_churn run (seed 101) took 3 158 cycles at 100 against 847 for a
// server whose 13 MB span ring had held the heap up, and its typical
// latency read 191 µs against 169 µs (medians of 4 runs); at 200 it took
// 1 274 cycles and read 164 µs.
const gcPercent = 200

// HTTP edge timeouts: a client that goes silent mid-request or between
// requests gives its connection and goroutine back. Generous enough that
// no keep-alive client notices — request bodies are capped at 1 MB, and
// responses are not covered (a slow search is bounded by its own
// deadline).
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxN := flag.Int("max-n", 6, "catalog width: servable queries range over n=2..max-n classes")
	seed := flag.Int64("seed", 101, "catalog generation seed")
	dsl := flag.String("dsl", "", "path to a Prairie rule specification to serve as the 'dsl' world (e.g. examples/dslrules/rules.prairie)")
	cacheSize := flag.Int("cache-size", 0, "shared plan-cache capacity (0 = 512, negative = disabled)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently running optimizations (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max queued requests before shedding with 429 (0 = 4×max-inflight)")
	queueWait := flag.Duration("queue-wait", 0, "max queue wait before shedding with 503 (0 = 250ms)")
	timeout := flag.Duration("timeout", 0, "default per-request optimization deadline (0 = 5s)")
	maxTimeout := flag.Duration("max-timeout", 0, "clamp on client-requested deadlines (0 = 30s)")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "max wait for in-flight requests on shutdown")
	flightCap := flag.Int("flight-capacity", 512, "flight-recorder retention: interesting requests kept for /v1/debug/requests (0 disables recording)")
	flightSlow := flag.Duration("flight-slow", 0, "latency above which a request is retained as slow (0 = 250ms)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	flag.Parse()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "optserve:", err)
		os.Exit(1)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger := obs.NewLogger(os.Stderr, level)

	var dslSrc string
	if *dsl != "" {
		b, err := os.ReadFile(*dsl)
		if err != nil {
			fail(err)
		}
		dslSrc = string(b)
	}
	reg, err := server.DefaultRegistry(*maxN, *seed, dslSrc)
	if err != nil {
		fail(err)
	}
	metrics := obs.NewRegistry()
	flight := obs.NewFlightRecorderObserved(obs.FlightConfig{
		Capacity:      *flightCap,
		SlowThreshold: *flightSlow,
	}, metrics)
	srv, err := server.New(server.Config{
		Registry:       reg,
		CacheSize:      *cacheSize,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Obs:            &obs.Observer{Metrics: metrics},
		Flight:         flight,
		Log:            logger,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "optserve: serving %v on http://%s/ (budget classes via /v1/rulesets)\n",
		reg.Names(), ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "worlds", reg.Names(),
		"flight_capacity", *flightCap)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "optserve: %v, draining (max %s)\n", sig, *drainWait)
		logger.Info("draining", "signal", sig.String(), "max_wait", drainWait.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "optserve: drain:", err)
			logger.Warn("drain incomplete", "error", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "optserve: shutdown:", err)
		}
		logger.Info("stopped")
	}
}
