package obs

// Config parameterises a Scope.
type Config struct {
	// TraceSampleEvery samples one of every N root tuples for full-path
	// tracing; 0 disables tracing (the per-stage histograms then stay
	// empty and trace checks are single atomic no-ops).
	TraceSampleEvery int
}

const (
	traceKeep = 64   // retained span timelines per scope
	eventCap  = 1024 // event ring size per scope
)

// Scope bundles the three observability facilities one engine instance
// shares across its subsystems. Every engine owns exactly one Scope
// (creating a default, tracing-disabled one when the caller provides
// none), so registration sites never need nil checks on the scope itself.
type Scope struct {
	Reg    *Registry
	Tracer *Tracer
	Events *EventLog
}

// NewScope builds a scope: a fresh registry, a tracer registered into it,
// and an event log.
func NewScope(cfg Config) *Scope {
	reg := NewRegistry()
	return &Scope{
		Reg:    reg,
		Tracer: newTracer(reg, cfg.TraceSampleEvery, traceKeep),
		Events: NewEventLog(eventCap),
	}
}
