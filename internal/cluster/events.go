package cluster

import (
	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Live event publishing: the fleet forwards sweep lifecycle transitions
// and cell settlements onto its EventBus, where the SSE endpoints in
// api.go stream them to `mtatctl watch sweep`. Publishes are gated on
// Bus.Active(topic), so an unwatched fleet pays one atomic load per
// potential event.

// sweepTopic names a sweep's bus topic.
func sweepTopic(id string) string { return "sweep/" + id }

// Bus returns the fleet's event bus (never nil after NewFleet).
func (f *Fleet) Bus() *telemetry.EventBus { return f.bus }

// Federator returns the fleet's metrics federator (never nil after
// NewFleet).
func (f *Fleet) Federator() *Federator { return f.fed }

// publishSweepLocked emits the sweep's current status as a
// `sweep.state` event — counts only, no per-cell rows: a watcher seeds
// its table from GET /api/v1/sweeps/{id} and applies `cell.settled`
// deltas, so streaming the full CellStates array (100k rows on a big
// sweep) per transition would be pure weight. Callers hold f.mu.
func (f *Fleet) publishSweepLocked(sw *sweep) {
	topic := sweepTopic(sw.id)
	if !f.bus.Active(topic) {
		return
	}
	st := f.statusLocked(sw)
	st.CellStates = nil
	f.bus.Publish(telemetry.BusEvent{
		Topic:  topic,
		Kind:   telemetry.EvBusSweepState,
		Tenant: daemon.TenantName(sw.tn),
		Data:   st,
	})
}

// publishCellLocked emits one settled cell's summary as a
// `cell.settled` event. Callers hold f.mu.
func (f *Fleet) publishCellLocked(sw *sweep, s CellSummary) {
	topic := sweepTopic(sw.id)
	if !f.bus.Active(topic) {
		return
	}
	f.bus.Publish(telemetry.BusEvent{
		Topic:  topic,
		Kind:   telemetry.EvBusCellSettled,
		Tenant: daemon.TenantName(sw.tn),
		Data:   s,
	})
}

// SyncBusMetrics mirrors the bus's cumulative publish/overflow
// accounting into the fleet registry. Called when an SSE stream ends.
func (f *Fleet) SyncBusMetrics() { daemon.SyncBusMetrics(f.tel, f.bus) }
