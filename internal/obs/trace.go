package obs

// Tracer is an inert placeholder: the engine writes no span trace, and
// nothing reads this type or Observer.Tracer. It survives only because
// the benchmark module (bench/layers.go) still builds one; delete it
// together with those lines.
type Tracer struct {
	// DropOldest is kept for the same caller; nothing reads it.
	DropOldest bool
}

// NewTracer returns an inert tracer.
func NewTracer() *Tracer { return &Tracer{} }
