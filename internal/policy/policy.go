// Package policy defines the tiered-memory management policy interface and
// the paper's comparison baselines (§5): the static FMEM_ALL / SMEM_ALL
// placements and the state-of-the-art page-placement systems MEMTIS
// (global access histogram) and TPP (fault-driven promotion with
// active/inactive lists). MTAT itself lives in internal/core and
// implements the same interface.
package policy

import (
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/pebs"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/workload"
)

// Context carries the per-tick view a policy acts on. The simulator owns
// the context and mutates it between ticks.
type Context struct {
	// Sys is the tiered memory system; policies migrate pages through it
	// within the tick's bandwidth budget.
	Sys *mem.System
	// Sampler provides the PEBS-sampled access statistics.
	Sampler *pebs.Sampler
	// Now is the simulation time in seconds; DT is the tick length.
	Now float64
	DT  float64
	// LC is the latency-critical workload (nil in BE-only scenarios).
	LC *workload.LC
	// BEs are the co-located best-effort workloads.
	BEs []*workload.BE
	// LCResult is the LC workload's result for the tick that just ran.
	LCResult workload.TickResult
	// BEResults are the BE results for the tick that just ran, indexed
	// like BEs.
	BEResults []workload.BETickResult
	// Telemetry is the observability sink, nil when none is attached.
	// Policies resolve metric handles from it at Init; every handle is
	// nil-safe, so instrumentation is a no-op without a sink.
	Telemetry *telemetry.Telemetry
	// Flight is the run's flight recorder, nil when none is attached.
	// The runner records the core event stream itself; policies may
	// record additional events (Record is nil-safe).
	Flight *flight.Recorder
}

// Policy is a tiered-memory page placement/partitioning policy.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Init prepares the policy after all workloads are attached. The
	// context carries no tick results yet.
	Init(ctx *Context) error
	// Tick lets the policy observe the tick's statistics and migrate
	// pages. It runs after workload progress and PEBS sampling.
	Tick(ctx *Context) error
	// LCStall returns the additional per-request service stall (seconds)
	// the policy currently imposes on the LC workload — nonzero only for
	// fault-driven policies like TPP, whose promotions happen on the
	// request's critical path.
	LCStall() float64
}

// workloadIDs returns the IDs of every workload in the context, LC first,
// reusing dst's backing array so per-tick callers allocate nothing.
func workloadIDs(dst []mem.WorkloadID, ctx *Context) []mem.WorkloadID {
	ids := dst[:0]
	if ctx.LC != nil {
		ids = append(ids, ctx.LC.ID())
	}
	for _, be := range ctx.BEs {
		ids = append(ids, be.ID())
	}
	return ids
}
