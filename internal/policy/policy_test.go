package policy

import (
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/pebs"
	"github.com/tieredmem/mtat/internal/workload"
)

// testRig bundles a small co-location: one LC (16 pages, uniform) and two
// BEs (24 pages each) on a 32-page FMem / 128-page SMem system.
type testRig struct {
	sys     *mem.System
	sampler *pebs.Sampler
	lc      *workload.LC
	bes     []*workload.BE
	ctx     *Context
	now     float64
}

func newRig(t *testing.T, lcTier mem.Tier) *testRig {
	t.Helper()
	return newRigRate(t, lcTier, 0.01)
}

// newRigRate builds the rig with a specific PEBS sampling rate. TPP tests
// need sparse sampling (as at production scale) so that only a fraction of
// pages land on the active list each tick.
func newRigRate(t *testing.T, lcTier mem.Tier, rate float64) *testRig {
	t.Helper()
	cfg := mem.Config{
		PageSize:           1 << 20,
		FMemBytes:          32 << 20,
		SMemBytes:          512 << 20,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 64 << 20, // generous: 64 pages/s
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lcCfg := workload.RedisConfig()
	lcCfg.RSSBytes = 16 << 20
	lc, err := workload.NewLC(sys, lcCfg, lcTier, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bes []*workload.BE
	for _, bc := range []workload.BEConfig{workload.PRConfig(2), workload.XSBenchConfig(2)} {
		bc.RSSBytes = 96 << 20
		be, err := workload.NewBE(sys, bc, mem.TierSMem)
		if err != nil {
			t.Fatal(err)
		}
		bes = append(bes, be)
	}
	sampler, err := pebs.NewSampler(sys, rate, 7)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{sys: sys, sampler: sampler, lc: lc, bes: bes}
	rig.ctx = &Context{
		Sys: sys, Sampler: sampler, DT: 0.1, LC: lc, BEs: bes,
		BEResults: make([]workload.BETickResult, len(bes)),
	}
	return rig
}

// tick advances the rig one step under p: workloads progress, accesses are
// sampled, then the policy acts.
func (r *testRig) tick(t *testing.T, p Policy) {
	t.Helper()
	r.tickLoad(t, p, 0.5)
}

// advance is tickLoad up to, but not including, the policy's action.
func (r *testRig) advance(t *testing.T, p Policy, loadFrac float64) {
	t.Helper()
	r.sys.BeginTick(100 * time.Millisecond)
	r.sampler.BeginTick()
	lcRes, err := r.lc.Tick(loadFrac, 0.1, p.LCStall())
	if err != nil {
		t.Fatal(err)
	}
	r.sampler.RecordAccesses(r.lc.ID(), r.lc.Dist(), lcRes.Accesses)
	for i, be := range r.bes {
		beRes, err := be.Tick(0.1)
		if err != nil {
			t.Fatal(err)
		}
		r.sampler.RecordAccesses(be.ID(), be.Dist(), beRes.Accesses)
		r.ctx.BEResults[i] = beRes
	}
	r.ctx.LCResult = lcRes
	r.ctx.Now = r.now
}

func TestFMemAllPinsLC(t *testing.T) {
	rig := newRig(t, mem.TierSMem) // LC starts fully in SMem
	p := NewFMemAll()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rig.tick(t, p)
	}
	if got := rig.sys.FMemPages(rig.lc.ID()); got != 16 {
		t.Errorf("FMEM_ALL: LC FMem pages = %d, want all 16", got)
	}
	// BE workloads share the remaining 16 FMem pages.
	beTotal := rig.sys.FMemPages(rig.bes[0].ID()) + rig.sys.FMemPages(rig.bes[1].ID())
	if beTotal != 16 {
		t.Errorf("FMEM_ALL: BE FMem pages = %d, want 16", beTotal)
	}
	if p.LCStall() != 0 {
		t.Error("static policy should add no stall")
	}
	if p.Name() != "FMEM_ALL" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestSMemAllEvictsLC(t *testing.T) {
	rig := newRig(t, mem.TierFMem) // LC starts in FMem
	p := NewSMemAll()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rig.tick(t, p)
	}
	if got := rig.sys.FMemPages(rig.lc.ID()); got != 0 {
		t.Errorf("SMEM_ALL: LC FMem pages = %d, want 0", got)
	}
	// All 32 FMem pages go to the BEs.
	beTotal := rig.sys.FMemPages(rig.bes[0].ID()) + rig.sys.FMemPages(rig.bes[1].ID())
	if beTotal != 32 {
		t.Errorf("SMEM_ALL: BE FMem pages = %d, want 32", beTotal)
	}
	if p.Name() != "SMEM_ALL" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestStaticRequiresLC(t *testing.T) {
	rig := newRig(t, mem.TierSMem)
	rig.ctx.LC = nil
	if err := NewFMemAll().Init(rig.ctx); err == nil {
		t.Error("FMEM_ALL without LC accepted")
	}
}

func TestMEMTISStarvesLC(t *testing.T) {
	// The §2.2 phenomenon: LC starts with all of FMem, but its sparse
	// uniform accesses lose the global hotness competition against the
	// BE workloads' dense streams, so MEMTIS drains LC out of FMem.
	rig := newRig(t, mem.TierFMem)
	p := NewMEMTIS()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	start := rig.sys.FMemPages(rig.lc.ID())
	if start != 16 {
		t.Fatalf("LC should start with 16 FMem pages, has %d", start)
	}
	for i := 0; i < 100; i++ { // 10 simulated seconds
		rig.tick(t, p)
	}
	lcResident := rig.sys.FMemPages(rig.lc.ID())
	if lcResident > start/2 {
		t.Errorf("MEMTIS left %d of %d LC pages in FMem; expected starvation", lcResident, start)
	}
	// FMem stays fully utilized by the hottest pages.
	if free := rig.sys.FMemFreePages(); free > 2 {
		t.Errorf("MEMTIS left %d FMem pages free", free)
	}
	if p.Name() != "MEMTIS" || p.LCStall() != 0 {
		t.Error("MEMTIS metadata wrong")
	}
}

func TestMEMTISFavorsSkewedBE(t *testing.T) {
	// PR (Zipf 1.05) concentrates accesses; XSBench (uniform) does not.
	// Under global hotness, PR captures FMem disproportionately to its
	// share of total accesses.
	rig := newRig(t, mem.TierSMem)
	p := NewMEMTIS()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rig.tick(t, p)
	}
	pr := rig.sys.FMemPages(rig.bes[0].ID())
	xs := rig.sys.FMemPages(rig.bes[1].ID())
	if pr <= xs {
		t.Errorf("MEMTIS gave PR %d pages vs XSBench %d; want PR favored", pr, xs)
	}
}

func TestTPPPromotesOnFault(t *testing.T) {
	rig := newRigRate(t, mem.TierSMem, 2e-5)
	p := NewTPP()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		rig.tick(t, p)
	}
	// Promotions happened: FMem is used (minus headroom).
	used := rig.sys.FMemCapacityPages() - rig.sys.FMemFreePages()
	if used == 0 {
		t.Fatal("TPP promoted nothing")
	}
	// Headroom respected approximately (within one tick's promotions).
	if free := rig.sys.FMemFreePages(); free == 0 {
		t.Error("TPP left no free headroom")
	}
	if p.Name() != "TPP" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestTPPStallGrowsWithMissRatio(t *testing.T) {
	rig := newRig(t, mem.TierSMem)
	p := NewTPP()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	rig.tick(t, p)
	stallAllSMem := p.LCStall()
	if stallAllSMem <= 0 {
		t.Fatalf("LC fully in SMem should stall under TPP, got %g", stallAllSMem)
	}
	want := float64(rig.lc.Config().MemTouches) * (1 - rig.lc.HitRatio()) *
		p.HintFaultFraction * p.FaultCost
	if diff := stallAllSMem - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stall = %g, want %g", stallAllSMem, want)
	}
}

func TestTPPThrashesUnderContention(t *testing.T) {
	// Sustained BE access to SMem pages keeps generating promotions; the
	// migration engine should be saturated tick after tick.
	rig := newRigRate(t, mem.TierSMem, 2e-5)
	p := NewTPP()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rig.tick(t, p)
	}
	early := rig.sys.MigratedPages()
	for i := 0; i < 20; i++ {
		rig.tick(t, p)
	}
	late := rig.sys.MigratedPages()
	if late-early < 20 {
		t.Errorf("TPP migrated only %d pages in 2s of steady state; expected continuous churn",
			late-early)
	}
}

// TestTPPTickZeroAllocs checks that a steady-state TPP tick, promotion
// scan, demotion histogram and exchange included, allocates nothing: the
// active list is read from the sampler's dedup state, not rebuilt.
func TestTPPTickZeroAllocs(t *testing.T) {
	rig := newRigRate(t, mem.TierSMem, 2e-5)
	p := NewTPP()
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rig.tick(t, p)
	}
	before := rig.sys.MigratedPages()
	for i := 0; i < 20; i++ {
		rig.advance(t, p, 0.5)
		allocs := testing.AllocsPerRun(1, func() {
			if err := p.Tick(rig.ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("tick %d: TPP.Tick allocs = %g, want 0", i, allocs)
		}
		rig.now += 0.1
	}
	if rig.sys.MigratedPages() == before {
		t.Fatal("no pages migrated while measuring; the test misses the exchange path")
	}
}

func TestHeuristicGrowsOnLatency(t *testing.T) {
	rig := newRig(t, mem.TierSMem)
	h := NewHeuristic()
	h.IntervalSeconds = 0.2 // fast decisions for the test
	if err := h.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	// Overdrive the LC workload: latency rises, the controller must grow
	// the LC partition from zero.
	for i := 0; i < 80; i++ {
		rig.tickLoad(t, h, 1.2)
	}
	if got := rig.sys.FMemPages(rig.lc.ID()); got == 0 {
		t.Error("Heuristic never grew the LC partition under overload")
	}
	if h.Name() != "Heuristic" || h.LCStall() != 0 {
		t.Error("Heuristic metadata wrong")
	}
}

func TestHeuristicShrinksWhenIdle(t *testing.T) {
	rig := newRig(t, mem.TierFMem) // LC starts with FMem
	h := NewHeuristic()
	h.IntervalSeconds = 0.2
	if err := h.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	start := rig.sys.FMemPages(rig.lc.ID())
	for i := 0; i < 100; i++ {
		rig.tickLoad(t, h, 0.1) // light load: P99 far below the SLO
	}
	if got := rig.sys.FMemPages(rig.lc.ID()); got >= start {
		t.Errorf("Heuristic did not release FMem at light load: %d -> %d", start, got)
	}
}

func TestHeuristicValidation(t *testing.T) {
	rig := newRig(t, mem.TierSMem)
	h := NewHeuristic()
	h.UpperFrac, h.LowerFrac = 0.4, 0.8 // inverted
	if err := h.Init(rig.ctx); err == nil {
		t.Error("inverted thresholds accepted")
	}
	rig.ctx.LC = nil
	if err := NewHeuristic().Init(rig.ctx); err == nil {
		t.Error("Heuristic without LC accepted")
	}
}

func TestVTMMProportionalToHotSet(t *testing.T) {
	// PR's concentrated accesses produce a small hot set; XSBench's
	// uniform accesses make nearly every page cross the threshold, so
	// vTMM hands XSBench the larger partition (its defining behavior).
	rig := newRigRate(t, mem.TierSMem, 2e-5)
	v := NewVTMM()
	v.IntervalSeconds = 0.5
	if err := v.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rig.tick(t, v)
	}
	pr := rig.sys.FMemPages(rig.bes[0].ID())
	xs := rig.sys.FMemPages(rig.bes[1].ID())
	if pr+xs == 0 {
		t.Fatal("vTMM allocated nothing to the BEs")
	}
	if v.Name() != "vTMM" || v.LCStall() != 0 {
		t.Error("vTMM metadata wrong")
	}
	// Targets never oversubscribe capacity.
	total := 0
	for _, pages := range v.targets {
		total += pages
	}
	if total > rig.sys.FMemCapacityPages() {
		t.Errorf("vTMM targets oversubscribe: %d > %d", total, rig.sys.FMemCapacityPages())
	}
}

func TestVTMMEvenSplitWithoutHotPages(t *testing.T) {
	rig := newRig(t, mem.TierSMem)
	v := NewVTMM()
	v.HotThreshold = 1 << 40 // nothing qualifies
	if err := v.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	rig.ctx.Now = 10 // force a repartition immediately
	if err := v.Tick(rig.ctx); err != nil {
		t.Fatal(err)
	}
	want := rig.sys.FMemCapacityPages() / 3
	for id, pages := range v.targets {
		if pages != want {
			t.Errorf("workload %d target = %d, want even split %d", id, pages, want)
		}
	}
}

// tickLoad advances the rig at a specific LC load fraction.
func (r *testRig) tickLoad(t *testing.T, p Policy, loadFrac float64) {
	t.Helper()
	r.advance(t, p, loadFrac)
	if err := p.Tick(r.ctx); err != nil {
		t.Fatal(err)
	}
	r.now += 0.1
}

func TestRegionMEMTISPlacesHotRegions(t *testing.T) {
	rig := newRigRate(t, mem.TierSMem, 2e-5)
	p := NewRegionMEMTIS()
	p.AggInterval = 0.3
	if err := p.Init(rig.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rig.tick(t, p)
	}
	// FMem gets used.
	used := rig.sys.FMemCapacityPages() - rig.sys.FMemFreePages()
	if used < rig.sys.FMemCapacityPages()/2 {
		t.Errorf("region placement used only %d FMem pages", used)
	}
	// Bookkeeping stays bounded: far fewer regions than pages.
	if got := p.TotalRegions(); got == 0 || got > rig.sys.NumPages() {
		t.Errorf("TotalRegions = %d (pages %d)", got, rig.sys.NumPages())
	}
	// PR (skewed) must beat XSBench (uniform) for residency, like
	// per-page MEMTIS.
	pr := rig.sys.FMemPages(rig.bes[0].ID())
	xs := rig.sys.FMemPages(rig.bes[1].ID())
	if pr <= xs {
		t.Errorf("region MEMTIS gave PR %d pages vs XSBench %d; want PR favored", pr, xs)
	}
	if p.Name() != "MEMTIS (regions)" || p.LCStall() != 0 {
		t.Error("RegionMEMTIS metadata wrong")
	}
}
