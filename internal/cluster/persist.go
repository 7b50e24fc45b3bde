package cluster

import (
	"context"
	"time"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Journal record types written by the fleet. Deltas follow the sweep
// lifecycle; a snapshot record (written by compaction) resets the whole
// registry, so replay is snapshot + deltas since.
const (
	recSweepSubmitted = "sweep.submitted"
	recCellSettled    = "cell.settled"
	recSweepFinished  = "sweep.finished"
	recFleetSnapshot  = "snapshot"
)

// sweepSubmittedRec journals an accepted sweep — the durable promise
// that every cell will be dispatched (at least once) even across a
// daemon crash. Cells are not journaled here: they recompile
// deterministically from the spec on replay.
type sweepSubmittedRec struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Spec        sim.SweepSpec `json:"spec"`
	SubmittedAt time.Time     `json:"submitted_at"`
	// Trace preserves the submission's distributed trace ID across a
	// crash (absent in pre-tracing journals).
	Trace string `json:"trace,omitempty"`
	// Tenant preserves sweep ownership across a crash so a restarted
	// fleet re-charges the right tenant's quotas. Empty — including
	// every record in a pre-tenant journal — means anonymous.
	Tenant string `json:"tenant,omitempty"`
}

// cellSettledRec journals one cell reaching a terminal state. A
// restarted fleet re-dispatches only cells with no settled record.
type cellSettledRec struct {
	SweepID string      `json:"sweep_id"`
	Index   int         `json:"index"`
	Summary CellSummary `json:"summary"`
}

// sweepFinishedRec journals a sweep's terminal transition.
type sweepFinishedRec struct {
	ID         string     `json:"id"`
	State      SweepState `json:"state"`
	FinishedAt time.Time  `json:"finished_at"`
}

// sweepSnapshot is one sweep inside a compaction record: the spec plus
// every settled cell summary.
type sweepSnapshot struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Spec        sim.SweepSpec `json:"spec"`
	State       SweepState    `json:"state"`
	SubmittedAt time.Time     `json:"submitted_at"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Cells       []CellSummary `json:"cells,omitempty"`
	Trace       string        `json:"trace,omitempty"`
	Tenant      string        `json:"tenant,omitempty"`
}

// fleetSnapshot is the compaction record: the full sweep registry at
// one instant. Sweeps are in submission order; Finished lists sweep IDs
// in finish order (the eviction order).
type fleetSnapshot struct {
	NextID   int             `json:"next_id"`
	Sweeps   []sweepSnapshot `json:"sweeps"`
	Finished []string        `json:"finished"`
}

// sweepImage is one sweep's replayed state before it is turned back
// into a live registry entry.
type sweepImage struct {
	id        string
	name      string
	spec      sim.SweepSpec
	state     SweepState
	submitted time.Time
	finished  time.Time
	trace     string
	tenant    string
	settled   map[int]CellSummary
}

// replayInto returns the journal replay callback that folds records
// into rs, the registry image the fleet boots from. Unknown record
// types are skipped (forward compatibility); malformed payloads abort
// the replay.
func replayInto(rs *daemon.Store[*sweepImage]) func(journal.Record) error {
	return func(rec journal.Record) error {
		switch rec.Type {
		case recFleetSnapshot:
			var snap fleetSnapshot
			if err := rec.Decode(&snap); err != nil {
				return err
			}
			rs.Reset(snap.NextID, snap.Finished)
			for _, ss := range snap.Sweeps {
				img := &sweepImage{
					id: ss.ID, name: ss.Name, spec: ss.Spec, state: ss.State,
					submitted: ss.SubmittedAt, trace: ss.Trace, tenant: ss.Tenant,
					settled: make(map[int]CellSummary, len(ss.Cells)),
				}
				if ss.FinishedAt != nil {
					img.finished = *ss.FinishedAt
				}
				for _, cs := range ss.Cells {
					img.settled[cs.Index] = cs
				}
				rs.Add(ss.ID, img)
			}
		case recSweepSubmitted:
			var r sweepSubmittedRec
			if err := rec.Decode(&r); err != nil {
				return err
			}
			if _, ok := rs.Get(r.ID); ok {
				return nil // duplicate submission record; first wins
			}
			rs.Add(r.ID, &sweepImage{
				id: r.ID, name: r.Name, spec: r.Spec, state: SweepRunning,
				submitted: r.SubmittedAt, trace: r.Trace, tenant: r.Tenant,
				settled: make(map[int]CellSummary),
			})
		case recCellSettled:
			var r cellSettledRec
			if err := rec.Decode(&r); err != nil {
				return err
			}
			if img, ok := rs.Get(r.SweepID); ok {
				img.settled[r.Index] = r.Summary
			}
		case recSweepFinished:
			var r sweepFinishedRec
			if err := rec.Decode(&r); err != nil {
				return err
			}
			if img, ok := rs.Get(r.ID); ok && !img.state.Terminal() {
				img.state, img.finished = r.State, r.FinishedAt
				rs.Finish(r.ID)
			}
		}
		return nil
	}
}

// restore installs the replayed image into a freshly built fleet and
// returns the sweeps that must be resumed: everything accepted but not
// finished by the previous incarnation. Their settled cells keep their
// journaled summaries; only the rest re-dispatch. Callers pass the
// returned sweeps to Resume() after registering nodes.
func (f *Fleet) restore(rs *daemon.Store[*sweepImage]) []*sweep {
	var resumable []*sweep
	for _, img := range rs.All() {
		cells, err := img.spec.Cells()
		if err != nil {
			// The spec was valid when journaled; refusing to start is
			// safer than guessing at a grid that no longer compiles.
			f.logf("cluster: journal replay: sweep %s spec no longer compiles: %v (dropped)", img.id, err)
			continue
		}
		sw := &sweep{
			id:        img.id,
			name:      img.name,
			spec:      img.spec,
			submitted: img.submitted,
			// Attribution tolerates tenants that left the config since the
			// record was written (and maps "" — every pre-tenant journal —
			// to the anonymous tenant), so replay of old WALs always works.
			tn:       f.tenants.Attribution(img.tenant),
			cellCost: f.tenants.Cost().EstimateCellSeconds(),
			done:     make(chan struct{}),
		}
		if img.trace != "" {
			// The trace ID survives the crash for status linkage; the
			// submit-time span does not, so resumed dispatch records no
			// further spans under it.
			if tid, err := telemetry.ParseTraceID(img.trace); err == nil {
				sw.trace = tid
			}
		}
		unsettled := 0
		for _, c := range cells {
			cr := &cellRun{cell: c, state: CellPending}
			if s, ok := img.settled[c.Index]; ok {
				sc := s
				cr.state = s.State
				cr.node = s.Node
				cr.attempts = s.Attempts
				cr.errMsg = s.Error
				cr.summary = &sc
			} else {
				unsettled++
			}
			sw.cells = append(sw.cells, cr)
		}
		sw.ctx, sw.cancel = context.WithCancel(context.Background())
		if img.state.Terminal() {
			sw.state = img.state
			sw.finished = img.finished
			sw.cancel()
			close(sw.done)
		} else {
			sw.state = SweepRunning
			f.recoveredCells += unsettled
			// Re-charge the owning tenant for the cells still to run,
			// bypassing quotas — they were admitted by the previous
			// incarnation.
			sw.tn.Restore(unsettled, sw.cellCost*float64(unsettled), true)
			resumable = append(resumable, sw)
		}
		f.sweeps.Add(sw.id, sw)
	}
	// Rebuild the finish-order list from IDs that still resolve, then
	// re-apply the retention cap (it may have shrunk across the restart).
	f.sweeps.Inherit(rs.FinishOrder(), rs.NextID(), func(sw *sweep) bool { return sw.state.Terminal() })
	f.sweeps.Evict(f.cfg.MaxSweeps, nil)
	f.recoveredSweeps = len(resumable)
	return resumable
}

// snapshotLocked captures the sweep registry for a compaction record.
// Callers hold f.mu.
func (f *Fleet) snapshotLocked() fleetSnapshot {
	snap := fleetSnapshot{NextID: f.sweeps.NextID(), Finished: f.sweeps.FinishOrder()}
	for _, sw := range f.sweeps.All() {
		ss := sweepSnapshot{
			ID: sw.id, Name: sw.name, Spec: sw.spec, State: sw.state,
			SubmittedAt: sw.submitted, Trace: daemon.TraceOrEmpty(sw.trace),
			Tenant: daemon.TenantName(sw.tn),
		}
		if !sw.finished.IsZero() {
			t := sw.finished
			ss.FinishedAt = &t
		}
		for _, cr := range sw.cells {
			if cr.summary != nil {
				ss.Cells = append(ss.Cells, *cr.summary)
			}
		}
		snap.Sweeps = append(snap.Sweeps, ss)
	}
	return snap
}
