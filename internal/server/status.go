package server

import (
	"time"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/sim"
)

// RunStatus is the JSON view of one run's lifecycle — what the API
// returns for status and list requests.
type RunStatus struct {
	ID          string      `json:"id"`
	State       State       `json:"state"`
	Spec        sim.RunSpec `json:"spec"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *RunResult  `json:"result,omitempty"`
	// Trace is the distributed trace the submission joined (hex trace
	// ID), "" for submissions that carried no traceparent. Feed it to
	// `mtatctl trace` to render the span tree.
	Trace string `json:"trace,omitempty"`
	// Tenant is the owning tenant's name. Empty (pre-tenant journals,
	// old clients) means the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
}

// terminal reports whether the run reached a final state.
func (s RunStatus) terminal() bool { return s.State.Terminal() }

// RunResult is the JSON summary of a finished run — the aggregate slice
// of sim.Result (the full time series stay in memory, reachable through
// Manager.Result; the trace streams via the events endpoint).
type RunResult struct {
	Policy          string      `json:"policy"`
	SLOMet          bool        `json:"slo_met"`
	LCViolationRate float64     `json:"lc_violation_rate"`
	LCMaxP99        float64     `json:"lc_max_p99_s"`
	LCMeanP99       float64     `json:"lc_mean_p99_s"`
	BEFairness      float64     `json:"be_fairness"`
	BEThroughput    float64     `json:"be_throughput"`
	BEs             []BEOutcome `json:"bes,omitempty"`
	MigratedBytes   int64       `json:"migrated_bytes"`
	Ticks           int         `json:"ticks"`
	// Core is the run's simulator-core resource accounting (wall time,
	// pages moved, samples drawn, allocation and GC deltas).
	Core *sim.CoreStats `json:"core,omitempty"`
}

// Stats is the node's load signal, served at GET /api/v1/status: how
// much work is queued and running, and how full the result store is. A
// fleet scheduler reads it to place new runs; the same numbers are
// exported as telemetry gauges.
type Stats struct {
	Workers         int `json:"workers"`
	QueueDepth      int `json:"queue_depth"`
	QueueCap        int `json:"queue_cap"`
	QueuedRuns      int `json:"queued_runs"`
	ActiveRuns      int `json:"active_runs"`
	RetainedResults int `json:"retained_results"`
	MaxRuns         int `json:"max_runs"`
	TotalRuns       int `json:"total_runs"`
	// RecoveredRuns counts the runs this incarnation re-enqueued from
	// the journal at startup (queued or in flight when the previous
	// incarnation died).
	RecoveredRuns int  `json:"recovered_runs"`
	Draining      bool `json:"draining"`
	// Tenants counts configured tenants (0 in permissive mode).
	Tenants int `json:"tenants,omitempty"`
}

// BEOutcome is one best-effort workload's aggregate in a RunResult.
type BEOutcome struct {
	Name         string  `json:"name"`
	NP           float64 `json:"np"`
	Throughput   float64 `json:"throughput"`
	AvgFMemPages float64 `json:"avg_fmem_pages"`
}

// status snapshots the run under the manager's lock.
func (r *run) status() RunStatus {
	st := RunStatus{
		ID:          r.id,
		State:       r.state,
		Spec:        r.spec,
		SubmittedAt: r.submitted,
		Error:       r.errMsg,
		Trace:       daemon.TraceOrEmpty(r.trace),
		Tenant:      daemon.TenantName(r.tn),
	}
	if !r.started.IsZero() {
		t := r.started
		st.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.FinishedAt = &t
	}
	switch {
	case r.result != nil:
		st.Result = summarize(r.result)
	case r.summary != nil:
		// Finished by a previous incarnation: serve the journaled
		// summary (the full time series did not survive the crash).
		st.Result = r.summary
	}
	return st
}

// summarize projects a sim.Result onto its JSON view.
func summarize(res *sim.Result) *RunResult {
	out := &RunResult{
		Policy:          res.Policy,
		SLOMet:          res.SLOMet,
		LCViolationRate: res.LCViolationRate,
		LCMaxP99:        res.LCMaxP99,
		LCMeanP99:       res.LCMeanP99,
		BEFairness:      res.BEFairness,
		BEThroughput:    res.BEThroughput,
		MigratedBytes:   res.MigratedBytes,
		Ticks:           res.Ticks,
		Core:            res.Core,
	}
	for _, be := range res.BEs {
		out.BEs = append(out.BEs, BEOutcome{
			Name:         be.Name,
			NP:           be.NP,
			Throughput:   be.Throughput,
			AvgFMemPages: be.AvgFMemPages,
		})
	}
	return out
}
