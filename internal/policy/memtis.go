package policy

import "github.com/tieredmem/mtat/internal/mem"

// MEMTIS reimplements the MEMTIS baseline [Lee et al., SOSP'23] as the
// paper describes it (§5): a single access histogram spans every workload,
// and the globally hottest pages are kept in FMem regardless of which
// tenant owns them. Because best-effort workloads generate far denser
// access streams than latency-critical ones, LC pages systematically lose
// this competition — the failure mode §2.2 demonstrates.
type MEMTIS struct {
	// AgingInterval is how often (seconds) access counts are halved.
	AgingInterval float64
	lastAge       float64
	pool          pool
	ids           []mem.WorkloadID
}

var _ Policy = (*MEMTIS)(nil)

// NewMEMTIS returns a MEMTIS baseline with the default 2 s aging interval.
func NewMEMTIS() *MEMTIS { return &MEMTIS{AgingInterval: 2} }

// Name implements Policy.
func (m *MEMTIS) Name() string { return "MEMTIS" }

// Init implements Policy.
func (m *MEMTIS) Init(ctx *Context) error {
	m.pool.attach(ctx)
	return nil
}

// Tick implements Policy: one global hotness-ranked pool over all
// workloads, sized to the whole of FMem.
func (m *MEMTIS) Tick(ctx *Context) error {
	m.ids = workloadIDs(m.ids, ctx)
	ids := m.ids
	if len(ids) == 0 {
		return nil
	}
	m.pool.manage(ctx.Sys, ids, ctx.Sys.FMemCapacityPages())
	if ctx.Now-m.lastAge >= m.AgingInterval {
		ctx.Sys.AgeHotness()
		m.lastAge = ctx.Now
	}
	return nil
}

// LCStall implements Policy. MEMTIS migrates pages off the request path
// (a background kthread), so it adds no per-request stall.
func (m *MEMTIS) LCStall() float64 { return 0 }
