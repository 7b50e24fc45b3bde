package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// SweepState is a sweep's lifecycle phase.
type SweepState string

// Sweep lifecycle states. A sweep whose every cell completed is done; a
// sweep with any permanently failed cell is failed (the other cells
// still complete and export).
const (
	SweepRunning   SweepState = "running"
	SweepDone      SweepState = "done"
	SweepFailed    SweepState = "failed"
	SweepCancelled SweepState = "cancelled"
)

// Terminal reports whether the state is final.
func (s SweepState) Terminal() bool { return s != SweepRunning }

// Cell lifecycle states.
const (
	CellPending = "pending"
	CellRunning = "running"
	CellDone    = "done"
	CellFailed  = "failed"
)

// Fleet sizing defaults.
const (
	DefaultSweepParallelism = 8
	DefaultMaxSweeps        = 64
	// DefaultCompactEvery is the journal record count that triggers a
	// snapshot compaction.
	DefaultCompactEvery = 1024
	// DefaultSlowCellFactor flags a finished cell as slow when its wall
	// time exceeds this multiple of the sweep's median cell wall time.
	DefaultSlowCellFactor = 3.0
	// slowCellMinSettled is the number of settled cells a sweep needs
	// before the median is meaningful enough to flag outliers.
	slowCellMinSettled = 3
)

// FleetConfig sizes the fleet scheduler.
type FleetConfig struct {
	// Registry configures node tracking and health probing.
	Registry RegistryConfig
	// Dispatcher configures placement and retry.
	Dispatcher DispatcherConfig
	// SweepParallelism bounds concurrently dispatched cells per sweep
	// (<= 0 selects DefaultSweepParallelism). Per-node in-flight bounds
	// still apply underneath.
	SweepParallelism int
	// MaxSweeps caps retained finished sweeps; the oldest finished sweep
	// is evicted beyond the cap (<= 0 selects DefaultMaxSweeps).
	MaxSweeps int
	// Telemetry is the fleet-level sink, shared with the registry and
	// dispatcher when theirs are nil. Nil disables fleet metrics.
	Telemetry *telemetry.Telemetry
	// Bus carries live sweep events (lifecycle, cell settlements) to SSE
	// subscribers. Nil selects a default-sized bus; publishing is free
	// while nobody subscribes either way.
	Bus *telemetry.EventBus
	// DataDir enables crash-safe persistence: accepted sweeps and
	// per-cell completions are journaled there, and a restarted fleet
	// resumes the unfinished cells. Empty keeps state in memory only.
	DataDir string
	// CompactEvery is the journal record count that triggers snapshot
	// compaction (<= 0 selects DefaultCompactEvery).
	CompactEvery int
	// Fsync syncs the journal after every append. Off by default: the
	// page cache survives a daemon crash, which is the failure mode the
	// journal targets; fsync additionally covers kernel panics and power
	// loss at a large latency cost.
	Fsync bool
	// Tenants authenticates sweep submissions and enforces per-tenant
	// quotas (sweep cell caps, rate limits, pending-cost budgets) at
	// admission. Nil selects a permissive registry: every caller maps to
	// the built-in anonymous admin tenant with unlimited quota, so
	// fleets started without -tenants behave exactly as before.
	Tenants *tenant.Registry
	// NodeToken is copied into Registry.NodeToken when that is unset —
	// the bearer token the fleet presents to its nodes.
	NodeToken string
	// SlowCellFactor flags a finished cell as slow — counted in
	// fleet_slow_cells_total and logged with the sweep's trace ID — when
	// its wall time exceeds this multiple of the sweep's median cell
	// wall time (<= 0 selects DefaultSlowCellFactor).
	SlowCellFactor float64
	// Logf sinks operational log lines (journal failures, replay
	// summaries). Nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Fleet errors.
var (
	// ErrSweepNotFound reports an unknown sweep ID — mapped to 404.
	ErrSweepNotFound = errors.New("cluster: sweep not found")
	// ErrFleetClosed rejects submissions after Shutdown began — mapped
	// to 503.
	ErrFleetClosed = errors.New("cluster: fleet shutting down")
)

// cellRun is one cell's mutable dispatch state, guarded by the fleet's
// mutex.
type cellRun struct {
	cell     sim.Cell
	state    string
	node     string
	attempts int
	errMsg   string
	summary  *CellSummary
	started  time.Time
	finished time.Time
}

// sweep is the registry entry for one submitted sweep.
type sweep struct {
	id        string
	name      string
	spec      sim.SweepSpec
	cells     []*cellRun
	state     SweepState
	submitted time.Time
	finished  time.Time
	// walls holds the wall times (seconds) of cells that completed
	// successfully, for the slow-cell median. Guarded by the fleet mutex.
	walls []float64
	// tn is the owning tenant (never nil — anonymous when the submitter
	// carried no identity); cellCost is the cost-model estimate (seconds)
	// charged per cell at admission and refunded per cell as it settles.
	tn       *tenant.Tenant
	cellCost float64
	// sc is the submit-time span context (the API request's server span);
	// runSweep parents the sweep.run span under it so every cell dispatch
	// — and, via traceparent, the remote run on the node — joins the
	// submitter's trace. trace alone survives journal replay.
	sc     telemetry.SpanContext
	trace  telemetry.TraceID
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Fleet owns the node registry, the dispatcher, and the sweep registry,
// and drives sweeps to completion. All methods are safe for concurrent
// use.
type Fleet struct {
	Reg     *Registry
	disp    *Dispatcher
	cfg     FleetConfig
	tel     *telemetry.Telemetry
	tenants *tenant.Registry
	bus     *telemetry.EventBus
	fed     *Federator

	jn   *daemon.Journal
	logf func(format string, args ...any)

	mu     sync.Mutex
	sweeps *daemon.Store[*sweep]
	closed bool
	wg     sync.WaitGroup
	// resumable holds recovered unfinished sweeps between NewFleet and
	// Resume; recoveredSweeps/recoveredCells are their startup counts.
	resumable       []*sweep
	recoveredSweeps int
	recoveredCells  int

	mSweeps, mSweepsDone  *telemetry.Counter
	mCellsDone            *telemetry.Counter
	mCellsFailed          *telemetry.Counter
	mCellsRetried         *telemetry.Counter
	mSlowCells            *telemetry.Counter
	hCellWall             *telemetry.Histogram
	gSweepsRunning        *telemetry.Gauge
	gCellsRunningInternal *telemetry.Gauge
}

// NewFleet builds a fleet scheduler and starts its node prober. With
// cfg.DataDir set it also replays the journal there; recovered
// unfinished sweeps stay parked until Resume() is called (after node
// registration — resuming against an empty registry would fail every
// cell with ErrNoNodes immediately).
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.SweepParallelism <= 0 {
		cfg.SweepParallelism = DefaultSweepParallelism
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = DefaultMaxSweeps
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if cfg.SlowCellFactor <= 0 {
		cfg.SlowCellFactor = DefaultSlowCellFactor
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Registry.Telemetry == nil {
		cfg.Registry.Telemetry = cfg.Telemetry
	}
	if cfg.Dispatcher.Telemetry == nil {
		cfg.Dispatcher.Telemetry = cfg.Telemetry
	}
	if cfg.Registry.NodeToken == "" {
		cfg.Registry.NodeToken = cfg.NodeToken
	}
	if cfg.Tenants == nil {
		cfg.Tenants = tenant.Permissive(cfg.Telemetry)
	}
	reg := NewRegistry(cfg.Registry)
	f := &Fleet{
		Reg:     reg,
		disp:    NewDispatcher(reg, cfg.Dispatcher),
		cfg:     cfg,
		tel:     cfg.Telemetry,
		tenants: cfg.Tenants,
		bus:     cfg.Bus,
		logf:    cfg.Logf,
		sweeps:  daemon.NewStore[*sweep]("s"),
		jn:      daemon.NewJournal("cluster", cfg.CompactEvery, cfg.Logf),
	}
	if f.bus == nil {
		f.bus = telemetry.NewEventBus(telemetry.BusConfig{})
	}
	f.fed = NewFederator(reg, cfg.Telemetry)
	m := f.tel.Metrics()
	f.mSweeps = m.Counter("fleet_sweeps_submitted_total")
	f.mSweepsDone = m.Counter("fleet_sweeps_done_total")
	f.mCellsDone = m.Counter("fleet_cells_done_total")
	f.mCellsFailed = m.Counter("fleet_cells_failed_total")
	f.mCellsRetried = m.Counter("fleet_cells_retried_total")
	f.mSlowCells = m.Counter(telemetry.MetricFleetSlowCells)
	f.hCellWall = m.Histogram(telemetry.MetricFleetCellWall)
	f.gSweepsRunning = m.Gauge("fleet_sweeps_running")
	f.gCellsRunningInternal = m.Gauge("fleet_cells_running")
	if cfg.DataDir != "" {
		rs := daemon.NewStore[*sweepImage]("s")
		stats, err := f.jn.Open(cfg.DataDir, journal.Options{
			Fsync:     cfg.Fsync,
			Telemetry: cfg.Telemetry,
		}, replayInto(rs))
		if err != nil {
			reg.Close()
			return nil, err
		}
		f.resumable = f.restore(rs)
		if stats.Records > 0 || stats.Torn {
			f.logf("cluster: journal replay: %d records in %d segments (torn=%v): "+
				"%d sweeps retained, %d to resume (%d cells)",
				stats.Records, stats.Segments, stats.Torn,
				f.sweeps.Len(), f.recoveredSweeps, f.recoveredCells)
		}
	}
	return f, nil
}

// Resume starts dispatch for the unfinished sweeps recovered from the
// journal and returns their statuses. Call it once, after registering
// nodes. Already-settled cells keep their journaled summaries; only the
// rest re-dispatch (at least once — cells in flight when the previous
// incarnation died run again).
func (f *Fleet) Resume() []SweepStatus {
	f.mu.Lock()
	resumed := f.resumable
	f.resumable = nil
	out := make([]SweepStatus, 0, len(resumed))
	for _, sw := range resumed {
		f.gSweepsRunning.Set(f.gSweepsRunning.Value() + 1)
		out = append(out, f.statusLocked(sw))
		f.publishSweepLocked(sw)
	}
	f.mu.Unlock()
	for _, sw := range resumed {
		f.tel.Tracer().EmitMsg(f.Reg.now(), "fleet.sweep.resume", telemetry.WLNone, sw.id,
			telemetry.I("cells", len(sw.cells)))
		f.wg.Add(1)
		go f.runSweep(sw)
	}
	return out
}

// Submit compiles the sweep and starts dispatching its cells across the
// fleet, returning the running sweep's status.
func (f *Fleet) Submit(spec sim.SweepSpec) (SweepStatus, error) {
	return f.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit under a caller context: when ctx carries a span
// context (the API middleware puts the request's server span there), the
// sweep joins that trace — sweep.run, every cell.dispatch, and the
// remote runs on the nodes all record as one tree.
func (f *Fleet) SubmitCtx(ctx context.Context, spec sim.SweepSpec) (SweepStatus, error) {
	cells, err := spec.Cells()
	if err != nil {
		return SweepStatus{}, err
	}
	sc := telemetry.SpanContextFrom(ctx)
	tn := tenant.FromContext(ctx)
	if tn == nil {
		tn = f.tenants.Anonymous()
	}
	cellCost := f.tenants.Cost().EstimateCellSeconds()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return SweepStatus{}, ErrFleetClosed
	}
	// Per-tenant admission: rate limit, sweep cell cap, and pending-cost
	// budget (cells × the cost model's estimated seconds per cell). On
	// success the tenant is charged for every cell up front; cells refund
	// as they settle.
	if err := tn.Admit(tenant.AdmitRequest{
		Units:       len(cells),
		CostSeconds: cellCost * float64(len(cells)),
		Sweep:       true,
	}); err != nil {
		f.mu.Unlock()
		return SweepStatus{}, err
	}
	sweepCtx, cancel := context.WithCancel(context.Background())
	sw := &sweep{
		id:        f.sweeps.Allocate(),
		name:      spec.Name,
		spec:      spec,
		state:     SweepRunning,
		submitted: time.Now(),
		tn:        tn,
		cellCost:  cellCost,
		sc:        sc,
		trace:     sc.Trace,
		ctx:       sweepCtx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	if sw.name == "" {
		sw.name = sw.id
	}
	for _, c := range cells {
		sw.cells = append(sw.cells, &cellRun{cell: c, state: CellPending})
	}
	// Journal before registering: acceptance is the durability promise,
	// so an unjournalable sweep is rejected rather than silently
	// volatile.
	if err := f.jn.AppendTraced(ctx, f.tel, recSweepSubmitted, sweepSubmittedRec{
		ID: sw.id, Name: sw.name, Spec: spec, SubmittedAt: sw.submitted,
		Trace:  daemon.TraceOrEmpty(sw.trace),
		Tenant: daemon.TenantName(sw.tn),
	}, telemetry.SA("sweep", sw.id)); err != nil {
		f.sweeps.Unallocate()
		cancel()
		tn.NoteAbandoned(len(cells), cellCost*float64(len(cells)))
		f.mu.Unlock()
		return SweepStatus{}, fmt.Errorf("cluster: journal submission: %w", err)
	}
	f.sweeps.Add(sw.id, sw)
	f.mSweeps.Inc()
	f.gSweepsRunning.Set(f.gSweepsRunning.Value() + 1)
	st := f.statusLocked(sw)
	f.publishSweepLocked(sw)
	f.mu.Unlock()

	f.tel.Tracer().EmitMsg(f.Reg.now(), "fleet.sweep.start", telemetry.WLNone, sw.id,
		telemetry.I("cells", len(cells)))
	f.wg.Add(1)
	go f.runSweep(sw)
	return st, nil
}

// runSweep drives every cell through the dispatcher with bounded
// parallelism, then settles the sweep's terminal state.
func (f *Fleet) runSweep(sw *sweep) {
	defer f.wg.Done()
	// With a submit-time span context, the whole dispatch runs under a
	// sweep.run span; each cell then opens its own cell.dispatch child.
	ctx := sw.ctx
	var span *telemetry.ActiveSpan
	if sw.sc.Valid() {
		ctx, span = f.tel.Spans().StartSpan(
			telemetry.ContextWithSpanContext(sw.ctx, sw.sc), "sweep.run",
			telemetry.SA("sweep", sw.id), telemetry.SA("cells", fmt.Sprint(len(sw.cells))))
	}
	jobs := make(chan *cellRun)
	var workers sync.WaitGroup
	n := f.cfg.SweepParallelism
	if n > len(sw.cells) {
		n = len(sw.cells)
	}
	for i := 0; i < n; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for cr := range jobs {
				f.runCell(ctx, sw, cr)
			}
		}()
	}
	for _, cr := range sw.cells {
		// Cells settled by a previous incarnation (resumed sweeps) keep
		// their journaled outcome and never re-dispatch.
		if cr.state == CellDone || cr.state == CellFailed {
			continue
		}
		jobs <- cr
	}
	close(jobs)
	workers.Wait()
	span.End(sw.ctx.Err())

	f.mu.Lock()
	state := SweepDone
	if sw.ctx.Err() != nil {
		state = SweepCancelled
	} else {
		for _, cr := range sw.cells {
			if cr.state != CellDone {
				state = SweepFailed
				break
			}
		}
	}
	sw.state = state
	sw.finished = time.Now()
	sw.cancel()
	close(sw.done)
	f.jn.AppendOrLog(recSweepFinished, sweepFinishedRec{
		ID: sw.id, State: state, FinishedAt: sw.finished,
	})
	f.jn.MaybeCompact(recFleetSnapshot, func() any { return f.snapshotLocked() })
	f.mSweepsDone.Inc()
	f.gSweepsRunning.Set(f.gSweepsRunning.Value() - 1)
	f.publishSweepLocked(sw)
	f.sweeps.Finish(sw.id)
	f.sweeps.Evict(f.cfg.MaxSweeps, func(id string) { f.bus.DropTopic(sweepTopic(id)) })
	f.mu.Unlock()
	f.tel.Tracer().EmitMsg(f.Reg.now(), "fleet.sweep.end", telemetry.WLNone, sw.id)
}

// runCell dispatches one cell and records its outcome. ctx is the sweep
// context, possibly carrying the sweep.run span for trace propagation.
func (f *Fleet) runCell(ctx context.Context, sw *sweep, cr *cellRun) {
	f.mu.Lock()
	if sw.ctx.Err() != nil {
		cr.state = CellFailed
		cr.errMsg = "sweep cancelled"
		sw.tn.NoteAbandoned(1, sw.cellCost)
		f.mu.Unlock()
		return
	}
	cr.state = CellRunning
	cr.started = time.Now()
	sw.tn.NoteStarted(1)
	sw.tn.ObserveQueueWait(cr.started.Sub(sw.submitted).Seconds())
	f.gCellsRunningInternal.Set(f.gCellsRunningInternal.Value() + 1)
	f.mu.Unlock()

	var span *telemetry.ActiveSpan
	if telemetry.SpanContextFrom(ctx).Valid() {
		ctx, span = f.tel.Spans().StartSpan(ctx, "cell.dispatch",
			telemetry.SA("sweep", sw.id), telemetry.SA("cell", cr.cell.Label))
	}
	res, err := f.disp.DoAs(ctx, cr.cell.Spec, daemon.TenantName(sw.tn))
	span.SetAttr("node", res.Node)
	span.End(err)

	f.mu.Lock()
	defer f.mu.Unlock()
	cr.finished = time.Now()
	cr.node = res.Node
	cr.attempts = res.NodeAttempts
	f.gCellsRunningInternal.Set(f.gCellsRunningInternal.Value() - 1)
	if res.NodeAttempts > 1 {
		f.mCellsRetried.Inc()
	}
	wall := cr.finished.Sub(cr.started).Seconds()
	// The cell-wall histogram carries the sweep's trace as its exemplar,
	// so a slow bucket on /metrics links straight to the trace tree.
	f.hCellWall.ObserveExemplar(wall, daemon.TraceOrEmpty(sw.trace))
	sw.tn.NoteDone(1, sw.cellCost)
	if err != nil {
		cr.state = CellFailed
		cr.errMsg = err.Error()
		f.mCellsFailed.Inc()
		s := newCellSummary(sw.name, cr.cell, CellFailed, res.Node, cr.errMsg,
			res.NodeAttempts, wall, daemon.TraceOrEmpty(sw.trace), nil)
		cr.summary = &s
		f.jn.AppendOrLog(recCellSettled, cellSettledRec{
			SweepID: sw.id, Index: cr.cell.Index, Summary: s,
		})
		f.publishCellLocked(sw, s)
		return
	}
	cr.state = CellDone
	f.mCellsDone.Inc()
	// Successful cell wall times feed the shared cost model, so future
	// sweeps' admission estimates track what this fleet actually runs.
	f.tenants.Cost().ObserveCellSeconds(wall)
	f.flagSlowCellLocked(sw, cr, wall)
	s := newCellSummary(sw.name, cr.cell, CellDone, res.Node, "",
		res.NodeAttempts, wall, daemon.TraceOrEmpty(sw.trace), &res.Status)
	cr.summary = &s
	f.jn.AppendOrLog(recCellSettled, cellSettledRec{
		SweepID: sw.id, Index: cr.cell.Index, Summary: s,
	})
	f.publishCellLocked(sw, s)
}

// flagSlowCellLocked compares a completed cell's wall time against the
// sweep's running median (successful cells only — failures settle at
// whatever point dispatch gave up and would skew it) and flags outliers
// beyond SlowCellFactor × median with a counter and a structured
// warning carrying the sweep's trace ID. Callers hold f.mu.
func (f *Fleet) flagSlowCellLocked(sw *sweep, cr *cellRun, wall float64) {
	med := median(sw.walls)
	sw.walls = append(sw.walls, wall)
	if len(sw.walls) <= slowCellMinSettled || med <= 0 || wall <= f.cfg.SlowCellFactor*med {
		return
	}
	f.mSlowCells.Inc()
	slog.Warn("fleet: slow cell",
		slog.String("sweep", sw.id),
		slog.String("cell", cr.cell.Label),
		slog.String("node", cr.node),
		slog.Float64("wall_s", wall),
		slog.Float64("median_s", med),
		slog.Float64("factor", f.cfg.SlowCellFactor),
		slog.String("trace", daemon.TraceOrEmpty(sw.trace)))
}

// median returns the median of xs, 0 when empty. xs is not mutated.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Get returns one sweep's status.
func (f *Fleet) Get(id string) (SweepStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sw, ok := f.sweeps.Get(id)
	if !ok {
		return SweepStatus{}, fmt.Errorf("%w: %s", ErrSweepNotFound, id)
	}
	return f.statusLocked(sw), nil
}

// List returns every retained sweep in submission order.
func (f *Fleet) List() []SweepStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	sweeps := f.sweeps.All()
	out := make([]SweepStatus, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, f.statusLocked(sw))
	}
	return out
}

// Cancel stops a running sweep: in-flight cells are abandoned (their
// remote runs keep going on the nodes — the at-least-once caveat cuts
// both ways) and pending cells never dispatch.
func (f *Fleet) Cancel(id string) (SweepStatus, error) {
	f.mu.Lock()
	sw, ok := f.sweeps.Get(id)
	if !ok {
		f.mu.Unlock()
		return SweepStatus{}, fmt.Errorf("%w: %s", ErrSweepNotFound, id)
	}
	sw.cancel()
	st := f.statusLocked(sw)
	f.mu.Unlock()
	return st, nil
}

// Results returns the per-cell summaries of every settled cell, in cell
// order. Available while the sweep is still running — finished cells
// stream in as they settle.
func (f *Fleet) Results(id string) ([]CellSummary, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sw, ok := f.sweeps.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSweepNotFound, id)
	}
	out := make([]CellSummary, 0, len(sw.cells))
	for _, cr := range sw.cells {
		if cr.summary != nil {
			out = append(out, *cr.summary)
		}
	}
	return out, nil
}

// Wait blocks until the sweep reaches a terminal state or ctx is done.
func (f *Fleet) Wait(ctx context.Context, id string) (SweepStatus, error) {
	f.mu.Lock()
	sw, ok := f.sweeps.Get(id)
	f.mu.Unlock()
	if !ok {
		return SweepStatus{}, fmt.Errorf("%w: %s", ErrSweepNotFound, id)
	}
	select {
	case <-sw.done:
		return f.Get(id)
	case <-ctx.Done():
		return SweepStatus{}, ctx.Err()
	}
}

// Shutdown stops the fleet: no new sweeps are accepted and running
// sweeps are allowed to finish. If ctx expires first, outstanding
// sweeps are cancelled (and still waited for — cancellation propagates
// to the dispatcher promptly). The node prober is stopped either way.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()

	err := daemon.Drain(ctx, &f.wg, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, sw := range f.sweeps.All() {
			if !sw.state.Terminal() {
				sw.cancel()
			}
		}
	})
	f.Reg.Close()
	f.mu.Lock()
	f.jn.Close()
	f.mu.Unlock()
	return err
}

// FleetStats is the fleet's load and recovery signal, served at
// GET /api/v1/status.
type FleetStats struct {
	Nodes         int `json:"nodes"`
	Sweeps        int `json:"sweeps"`
	RunningSweeps int `json:"running_sweeps"`
	MaxSweeps     int `json:"max_sweeps"`
	// RecoveredSweeps and RecoveredCells count what this incarnation
	// replayed from the journal at startup: unfinished sweeps, and the
	// cells in them that had not settled (the re-dispatch backlog).
	RecoveredSweeps int  `json:"recovered_sweeps"`
	RecoveredCells  int  `json:"recovered_cells"`
	Draining        bool `json:"draining"`
}

// Ready reports whether the fleet should receive traffic: journal
// replay finished (implied by construction), any recovered sweeps have
// been handed to Resume, and the fleet is not draining. The reason
// string explains a false verdict — served verbatim by GET /readyz.
func (f *Fleet) Ready() (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, "draining: shutdown in progress"
	}
	if len(f.resumable) > 0 {
		return false, fmt.Sprintf("recovery pending: %d sweeps awaiting Resume", len(f.resumable))
	}
	return true, "ok"
}

// Tenants returns the fleet's tenant registry (never nil — permissive
// when the fleet was built without a tenant config).
func (f *Fleet) Tenants() *tenant.Registry { return f.tenants }

// Stats reports the fleet's registry size and startup-recovery counts.
func (f *Fleet) Stats() FleetStats {
	nodes := len(f.Reg.Nodes())
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FleetStats{
		Nodes:           nodes,
		Sweeps:          f.sweeps.Len(),
		MaxSweeps:       f.cfg.MaxSweeps,
		RecoveredSweeps: f.recoveredSweeps,
		RecoveredCells:  f.recoveredCells,
		Draining:        f.closed,
	}
	for _, sw := range f.sweeps.All() {
		if !sw.state.Terminal() {
			st.RunningSweeps++
		}
	}
	return st
}

// SweepStatus is the JSON view of one sweep's lifecycle.
type SweepStatus struct {
	ID    string     `json:"id"`
	Name  string     `json:"name"`
	State SweepState `json:"state"`
	// Cells counts: total and by state.
	Cells   int `json:"cells"`
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Retried counts cells that needed more than one node.
	Retried     int          `json:"retried"`
	SubmittedAt time.Time    `json:"submitted_at"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	CellStates  []CellStatus `json:"cell_states,omitempty"`
	// Trace is the distributed trace the submission joined (hex trace
	// ID), "" for submissions that carried no traceparent. Feed it to
	// `mtatctl trace` to render the span tree.
	Trace string `json:"trace,omitempty"`
	// Tenant is the submitting tenant, "" for anonymous submissions.
	Tenant string `json:"tenant,omitempty"`
}

// CellStatus is one cell's row in a SweepStatus.
type CellStatus struct {
	Index    int    `json:"index"`
	Label    string `json:"label"`
	State    string `json:"state"`
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// statusLocked snapshots a sweep under the fleet's lock.
func (f *Fleet) statusLocked(sw *sweep) SweepStatus {
	st := SweepStatus{
		ID:          sw.id,
		Name:        sw.name,
		State:       sw.state,
		Cells:       len(sw.cells),
		SubmittedAt: sw.submitted,
		Trace:       daemon.TraceOrEmpty(sw.trace),
		Tenant:      daemon.TenantName(sw.tn),
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.FinishedAt = &t
	}
	for _, cr := range sw.cells {
		switch cr.state {
		case CellPending:
			st.Pending++
		case CellRunning:
			st.Running++
		case CellDone:
			st.Done++
		case CellFailed:
			st.Failed++
		}
		if cr.attempts > 1 {
			st.Retried++
		}
		st.CellStates = append(st.CellStates, CellStatus{
			Index:    cr.cell.Index,
			Label:    cr.cell.Label,
			State:    cr.state,
			Node:     cr.node,
			Attempts: cr.attempts,
			Error:    cr.errMsg,
		})
	}
	return st
}
