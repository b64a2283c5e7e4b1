package obs

// Observer bundles the observability sinks an optimizer run reports
// into. Every field is optional; a nil *Observer — or one with all
// sinks off — keeps instrumented code on a single-branch fast path, so
// unobserved runs behave (and perform) exactly as before the
// observability layer existed.
type Observer struct {
	// Metrics, when set, receives aggregate counters, gauges, and
	// latency histograms at the end of each run (never on hot paths).
	Metrics *Registry
	// Tracer is inert (see Tracer): nothing reads it.
	Tracer *Tracer
	// RuleTiming enables per-rule wall-time attribution into
	// Stats.TransTime / Stats.ImplTime (two monotonic clock reads per
	// rule application).
	RuleTiming bool
}

// MetricsOrNil returns the metrics sink. Nil-safe.
func (o *Observer) MetricsOrNil() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// TimingEnabled reports whether per-rule timing is on. Nil-safe.
func (o *Observer) TimingEnabled() bool { return o != nil && o.RuleTiming }

// Enabled reports whether any sink is active. Nil-safe.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.RuleTiming)
}
