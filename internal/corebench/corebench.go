// Package corebench micro-benchmarks the simulator-core hot paths — page
// migration (mem), histogram rebuild and partition split (hist), Zipf
// draws and PEBS sampling (dist, pebs), the queue-model tick (queue), and
// the flight-recorder ring — at a fixed geometry, independent of the
// experiment Scale, so numbers stay comparable across -quick and full
// runs. The resulting report is the repo's perf baseline
// (BENCH_core.json): CI re-runs the suite on every PR and fails on gross
// (>2×) ns/op or allocs/op regressions via Compare.
package corebench

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/hist"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/pebs"
	"github.com/tieredmem/mtat/internal/queue"
)

// Fixed benchmark geometry. Deliberately NOT derived from the experiment
// Scale: a perf baseline is only comparable if every run measures the
// same work.
const (
	benchPageSize  = 4 << 20  // 4 MiB bookkeeping pages
	benchFMemBytes = 2 << 30  // 512 FMem pages
	benchSMemBytes = 16 << 30 // 4096 SMem pages
	benchRSSBytes  = 8 << 30  // 2048-page benchmark workload
	benchSeed      = 42
)

// Result is one benchmark's measurement — the unit of the committed
// perf baseline.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full suite output, serialized as BENCH_core.json.
type Report struct {
	// Go is the toolchain that produced the numbers (informational; the
	// comparison gate ignores it).
	Go string `json:"go,omitempty"`
	// Generated is an RFC 3339 timestamp (informational).
	Generated string   `json:"generated,omitempty"`
	Results   []Result `json:"results"`
}

// Find returns the named result and whether it exists.
func (r Report) Find(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// Bench is one named hot-path benchmark.
type Bench struct {
	Name string
	Run  func(b *testing.B)
}

// Benches returns the core hot-path suite in report order. Each setup
// error surfaces as a panic inside testing.Benchmark; the geometry is
// compile-time constant, so that can only happen if the packages'
// validation rules change.
func Benches() []Bench {
	return []Bench{
		{"mem/migrate", benchMemMigrate},
		{"mem/exchange", benchMemExchange},
		{"mem/age", benchMemAge},
		{"mem/age_ref", benchMemAgeRef},
		{"hist/build", benchHistBuild},
		{"hist/hotsplit", benchHistHotSplit},
		{"dist/zipf_sample", benchZipfSample},
		{"pebs/record", benchPEBSRecord},
		{"pebs/record_ref", benchPEBSRecordRef},
		{"queue/tick", benchQueueTick},
		{"queue/tick_ref", benchQueueTickRef},
		{"queue/quantile", benchQueueQuantile},
		{"queue/quantile_ref", benchQueueQuantileRef},
		{"flight/record", benchFlightRecord},
	}
}

// Run executes the full suite and assembles the report. Each benchmark
// runs under testing.Benchmark (~1 s of measurement per entry).
func Run() Report {
	var rep Report
	for _, b := range Benches() {
		res := testing.Benchmark(b.Run)
		rep.Results = append(rep.Results, Result{
			Name:        b.Name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return rep
}

// benchSystem builds the fixed-geometry memory system with one resident
// workload and deterministic per-page hotness.
func benchSystem() (*mem.System, mem.WorkloadID) {
	cfg := mem.DefaultConfig()
	cfg.PageSize = benchPageSize
	cfg.FMemBytes = benchFMemBytes
	cfg.SMemBytes = benchSMemBytes
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	w, err := sys.AddWorkload(benchRSSBytes, mem.TierFMem)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	for i, pid := range sys.WorkloadPages(w) {
		sys.AddHotness(pid, uint64(i%4096))
	}
	return sys, w
}

// benchMemMigrate ping-pongs one page between tiers: the tightest
// Migrate loop (bookkeeping + budget metering, no slice traffic).
func benchMemMigrate(b *testing.B) {
	sys, w := benchSystem()
	pid := sys.WorkloadPages(w)[0]
	sys.BeginTick(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := mem.TierSMem
		if sys.Page(pid).Tier == mem.TierSMem {
			to = mem.TierFMem
		}
		if err := sys.Migrate(pid, to); err != nil {
			sys.BeginTick(time.Second) // budget exhausted; refill and retry
			i--
		}
	}
}

// benchMemExchange swaps a 64-page promote set against a 64-page demote
// set — the partition-replacement inner loop (§3.3.2).
func benchMemExchange(b *testing.B) {
	sys, w := benchSystem()
	pages := sys.WorkloadPages(w)
	fmem := sys.FMemPages(w)
	const batch = 64
	demote := append([]mem.PageID(nil), pages[:batch]...)           // FMem-resident head
	promote := append([]mem.PageID(nil), pages[fmem:fmem+batch]...) // SMem-resident tail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BeginTick(time.Second)
		sys.Exchange(promote, demote)
		promote, demote = demote, promote
	}
}

// benchMemAge measures one AgeHotness pass over the 2048-page workload on
// the default lazy-epoch path: an O(1) epoch bump, with the halving folded
// into later reads.
func benchMemAge(b *testing.B) {
	sys, _ := benchSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AgeHotness()
	}
}

// benchMemAgeRef measures the same pass on the retained reference path —
// the seed core's eager O(pages) halving sweep. The mem/age vs
// mem/age_ref gap is the headline win of the lazy-aging rewrite.
func benchMemAgeRef(b *testing.B) {
	sys, _ := benchSystem()
	sys.SetEagerAging(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AgeHotness()
	}
}

// benchHistBuild rebuilds the three §3.3.2 histograms over the 2048-page
// workload — the per-partition-interval classification scan.
func benchHistBuild(b *testing.B) {
	sys, w := benchSystem()
	var builder hist.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Build(sys, w)
	}
}

// benchHistHotSplit measures the Fig. 4b hot/cold partition split on a
// freshly built unified histogram.
func benchHistHotSplit(b *testing.B) {
	sys, w := benchSystem()
	var builder hist.Builder
	_, _, unified := builder.Build(sys, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unified.HotSplit(512)
	}
}

// benchZipfSample draws one item from a θ = 0.99 Zipf over 9000 items,
// the page count of a paper-scale workload at 4 MiB pages. Every PEBS
// sample of a Zipfian workload pays this once.
func benchZipfSample(b *testing.B) {
	d, err := dist.NewZipf(9000, 0.99)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	rng := rand.New(rand.NewSource(benchSeed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

// benchPEBSRecord samples 10k logical accesses at a 1% rate through a
// Zipfian popularity — one workload-tick of PP-E sampling.
func benchPEBSRecord(b *testing.B) {
	sys, w := benchSystem()
	sampler, err := pebs.NewSampler(sys, 0.01, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	d, err := dist.NewZipf(1<<20, 0.99)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.BeginTick()
		sampler.RecordAccesses(w, d, 10_000)
	}
}

// benchPEBSRecordRef is benchPEBSRecord on the retained reference dedup
// path (the seed core's per-tick map rebuild), for side-by-side evidence
// in the report.
func benchPEBSRecordRef(b *testing.B) {
	sys, w := benchSystem()
	sampler, err := pebs.NewSampler(sys, 0.01, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	sampler.SetReferenceDedup(true)
	d, err := dist.NewZipf(1<<20, 0.99)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.BeginTick()
		sampler.RecordAccesses(w, d, 10_000)
	}
}

// benchQueueTick runs one M/G/c tick (Erlang-C + 2048 Monte Carlo sojourn
// draws) at 80% utilization — the LC latency model's per-tick cost.
func benchQueueTick(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	svc := queue.ExponentialService(500e-6)
	rate := 0.8 * 16 / 500e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(rate, 0.1, svc, 0.002); err != nil {
			panic(fmt.Sprintf("corebench: %v", err))
		}
		m.ResetBacklog()
	}
}

// benchQueueTickRef is benchQueueTick on the retained reference quantile
// path (per-tick draw allocation + full shell sort), for side-by-side
// evidence in the report.
func benchQueueTickRef(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	m.SetReferenceQuantiles(true)
	svc := queue.ExponentialService(500e-6)
	rate := 0.8 * 16 / 500e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(rate, 0.1, svc, 0.002); err != nil {
			panic(fmt.Sprintf("corebench: %v", err))
		}
		m.ResetBacklog()
	}
}

// benchQuantileDraws builds one tick's worth of deterministic sojourn
// draws for the quantile-kernel benchmarks (2048, matching the Monte
// Carlo buffer the queue model extracts quantiles from every tick).
func benchQuantileDraws() []float64 {
	draws := make([]float64, 2048)
	x := uint64(benchSeed)
	for i := range draws {
		x = x*6364136223846793005 + 1442695040888963407
		draws[i] = float64(x>>11) / (1 << 53)
	}
	return draws
}

// benchQueueQuantile measures the per-tick quantile kernel in isolation
// (quickselect for P50 then P99). Tick-level numbers are dominated by
// draw generation, which both quantile paths share; this pair isolates
// the sort→select swap. The pristine buffer is re-copied each iteration
// because the kernel reorders it in place.
func benchQueueQuantile(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	pristine := benchQuantileDraws()
	draws := make([]float64, len(pristine))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(draws, pristine)
		m.Quantiles(draws)
	}
}

// benchQueueQuantileRef is benchQueueQuantile on the retained reference
// path (full shell sort), for side-by-side evidence in the report.
func benchQueueQuantileRef(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	m.SetReferenceQuantiles(true)
	pristine := benchQuantileDraws()
	draws := make([]float64, len(pristine))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(draws, pristine)
		m.Quantiles(draws)
	}
}

// benchFlightRecord measures one flight-recorder ring append — the cost
// every instrumented core event pays when a run has a recorder attached.
func benchFlightRecord(b *testing.B) {
	rec := flight.New(flight.DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(flight.Event{T: float64(i), Kind: flight.KindPromotion, WL: 0, Value: 1})
	}
}
