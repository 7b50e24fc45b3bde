// Package telemetry is the reproduction's observability layer: a
// dependency-free metrics registry (counters, gauges, windowed histograms
// with quantile snapshots) plus a structured event tracer backed by a
// bounded ring buffer with JSONL export.
//
// The control loop (PP-M decisions, PP-E migration slices, the cgroup
// interface, the simulator) is instrumented against this package. All
// instrumentation is nil-safe: a nil *Telemetry, *Registry, *Tracer,
// *Counter, *Gauge or *Histogram accepts every call as a no-op, so
// components hold pre-resolved handles and pay nothing when no sink is
// attached (verified by the benchmarks in this package and by
// BenchmarkPPETick in internal/core).
//
// The event schema and metric naming conventions live in schema.go and are
// documented in README.md ("Observability").
package telemetry

// Config sizes the telemetry buffers.
type Config struct {
	// TraceCapacity is the number of events the tracer ring retains;
	// older events are overwritten. 0 selects DefaultTraceCapacity.
	TraceCapacity int
	// HistWindow is the number of samples each windowed histogram
	// retains for quantile snapshots. 0 selects DefaultHistWindow.
	HistWindow int
	// SpanCapacity is the number of finished request spans the span
	// store retains. 0 selects DefaultSpanCapacity.
	SpanCapacity int
	// Service names this process on every span it records (e.g.
	// "mtatd"); may also be set later via Spans().SetService.
	Service string
}

// Buffer defaults.
const (
	DefaultTraceCapacity = 1 << 16
	DefaultHistWindow    = 1 << 12
)

// Telemetry bundles a metrics registry, an event tracer, and a request
// span store. The zero value of *Telemetry (nil) is a valid no-op sink.
type Telemetry struct {
	reg   *Registry
	tr    *Tracer
	spans *SpanStore
}

// New returns a telemetry sink with default buffer sizes.
func New() *Telemetry { return NewWithConfig(Config{}) }

// NewWithConfig returns a telemetry sink with the given buffer sizes.
func NewWithConfig(c Config) *Telemetry {
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = DefaultTraceCapacity
	}
	if c.HistWindow <= 0 {
		c.HistWindow = DefaultHistWindow
	}
	return &Telemetry{
		reg:   NewRegistry(c.HistWindow),
		tr:    NewTracer(c.TraceCapacity),
		spans: NewSpanStore(c.Service, c.SpanCapacity),
	}
}

// Metrics returns the registry (nil for a nil sink — still safe to use).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the event tracer (nil for a nil sink — still safe to use).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// Spans returns the request span store (nil for a nil sink — still
// safe to use).
func (t *Telemetry) Spans() *SpanStore {
	if t == nil {
		return nil
	}
	return t.spans
}

// SyncDropStats copies the tracer's and span store's monotonic drop
// counts into the MetricTraceDropped / MetricSpansDropped registry
// counters, so ring-buffer loss is visible to any scrape. Called by
// the metrics endpoints before rendering; safe on a nil sink.
func (t *Telemetry) SyncDropStats() {
	if t == nil {
		return
	}
	t.reg.Counter(MetricTraceDropped).RaiseTo(int64(t.tr.Dropped()))
	t.reg.Counter(MetricSpansDropped).RaiseTo(int64(t.spans.Dropped()))
}
