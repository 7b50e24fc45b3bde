package server

import (
	"time"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Live event publishing: the manager forwards run lifecycle
// transitions, flight-recorder events, and periodic mid-run stats
// deltas onto its EventBus, where the SSE endpoints in api.go stream
// them to `mtatctl watch`. Every publish is gated on Bus.Active(topic),
// so a daemon nobody is watching pays one atomic load per potential
// event and allocates nothing.

// DefaultStatsInterval is the mid-run stats sampling period selected by
// Config.StatsInterval <= 0.
const DefaultStatsInterval = time.Second

// runTopic names a run's bus topic.
func runTopic(id string) string { return "run/" + id }

// RunStatsDelta is the periodic mid-run sample streamed as a
// `run.stats` event: cumulative counters from the run's private
// registry plus the deltas since the previous sample, so a watcher can
// render rates without keeping history. Promotion/demotion pages come
// from the PP-E counters (zero for policies that do not migrate
// through PP-E).
type RunStatsDelta struct {
	RunID string `json:"run_id"`
	// ElapsedS is wall time since the run started.
	ElapsedS float64 `json:"elapsed_s"`
	// IntervalS is wall time covered by the d_* deltas.
	IntervalS float64 `json:"interval_s"`

	Ticks       int64 `json:"ticks"`
	DTicks      int64 `json:"d_ticks"`
	Violations  int64 `json:"violations"`
	DViolations int64 `json:"d_violations"`
	Promoted    int64 `json:"promoted_pages"`
	DPromoted   int64 `json:"d_promoted_pages"`
	Demoted     int64 `json:"demoted_pages"`
	DDemoted    int64 `json:"d_demoted_pages"`

	// P99S is the current windowed LC p99 (seconds); Load the offered
	// load fraction; FMemRatio the LC fast-memory ratio.
	P99S      float64 `json:"lc_p99_s"`
	Load      float64 `json:"load"`
	FMemRatio float64 `json:"fmem_ratio"`
}

// Bus returns the manager's event bus (never nil after NewManager).
func (m *Manager) Bus() *telemetry.EventBus { return m.bus }

// publishRunLocked emits the run's current status as a `run.state`
// event. Callers hold m.mu.
func (m *Manager) publishRunLocked(r *run) {
	topic := runTopic(r.id)
	if !m.bus.Active(topic) {
		return
	}
	m.bus.Publish(telemetry.BusEvent{
		Topic:  topic,
		Kind:   telemetry.EvBusRunState,
		Tenant: daemon.TenantName(r.tn),
		Data:   r.status(),
	})
}

// flightSink returns the forwarding sink installed on a run's flight
// recorder: each core event lands on the bus as a `flight` event when
// someone is watching. The sink runs under the recorder's lock, so it
// does nothing but the gated publish.
func (m *Manager) flightSink(id string, tn string) flight.Sink {
	topic := runTopic(id)
	return func(ev flight.Event) {
		if !m.bus.Active(topic) {
			return
		}
		m.bus.Publish(telemetry.BusEvent{
			Topic:  topic,
			Kind:   telemetry.EvBusFlight,
			Tenant: tn,
			Data:   ev,
		})
	}
}

// sampleRunStats streams periodic RunStatsDelta events for a running
// run until stop closes. It resolves the run's private registry handles
// once and reads them lock-free each tick; with no watcher on the topic
// each tick is one atomic load.
func (m *Manager) sampleRunStats(r *run, stop <-chan struct{}) {
	interval := m.cfg.StatsInterval
	if interval <= 0 {
		interval = DefaultStatsInterval
	}
	topic := runTopic(r.id)
	tn := daemon.TenantName(r.tn)
	reg := r.tel.Metrics()
	cTicks := reg.Counter(telemetry.MetricSimTicks)
	cViol := reg.Counter(telemetry.MetricSimViolations)
	cProm := reg.Counter(telemetry.MetricPPEPromoted)
	cDem := reg.Counter(telemetry.MetricPPEDemoted)
	hP99 := reg.Histogram(telemetry.MetricSimP99)
	gLoad := reg.Gauge(telemetry.MetricSimLoad)
	gFMem := reg.Gauge(telemetry.MetricSimFMemRatio)

	started := time.Now()
	var last RunStatsDelta
	lastAt := started
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if !m.bus.Active(topic) {
				continue
			}
			cur := RunStatsDelta{
				RunID:      r.id,
				ElapsedS:   now.Sub(started).Seconds(),
				IntervalS:  now.Sub(lastAt).Seconds(),
				Ticks:      cTicks.Value(),
				Violations: cViol.Value(),
				Promoted:   cProm.Value(),
				Demoted:    cDem.Value(),
				P99S:       hP99.Quantile(0.99),
				Load:       gLoad.Value(),
				FMemRatio:  gFMem.Value(),
			}
			cur.DTicks = cur.Ticks - last.Ticks
			cur.DViolations = cur.Violations - last.Violations
			cur.DPromoted = cur.Promoted - last.Promoted
			cur.DDemoted = cur.Demoted - last.Demoted
			m.bus.Publish(telemetry.BusEvent{
				Topic:  topic,
				Kind:   telemetry.EvBusRunStats,
				Tenant: tn,
				Data:   cur,
			})
			last, lastAt = cur, now
		}
	}
}

// syncFlightDropsLocked mirrors a run's flight-ring loss into the
// daemon registry as flight_events_dropped_total{run}. The series is
// only created once the run actually dropped, so the registry does not
// accumulate a zero series per run. Callers hold m.mu.
func (m *Manager) syncFlightDropsLocked(r *run) {
	d := int64(r.flight.Dropped())
	if d == 0 {
		return
	}
	m.cfg.Telemetry.Metrics().Counter(
		telemetry.SeriesName(telemetry.MetricFlightDropped, "run", r.id)).RaiseTo(d)
}

// SyncFlightDrops mirrors one run's flight-ring loss into the daemon
// registry (no-op for unknown runs — the HTTP layer already 404ed).
func (m *Manager) SyncFlightDrops(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.runs.Get(id); ok && r.flight != nil {
		m.syncFlightDropsLocked(r)
	}
}

// SyncBusMetrics mirrors the bus's cumulative publish/overflow
// accounting into the daemon registry. Called when an SSE stream ends
// and at run finish — often enough for scrape freshness without a
// dedicated goroutine.
func (m *Manager) SyncBusMetrics() { daemon.SyncBusMetrics(m.cfg.Telemetry, m.bus) }
