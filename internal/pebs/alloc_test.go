package pebs

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
)

func newAllocBenchSampler(tb testing.TB) (*Sampler, mem.WorkloadID, dist.Distribution) {
	tb.Helper()
	cfg := mem.Config{
		PageSize:           4 << 20,
		FMemBytes:          2 << 30,
		SMemBytes:          16 << 30,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 1 << 40,
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := sys.AddWorkload(8<<30, mem.TierFMem)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dist.NewZipf(1<<20, 0.99)
	if err != nil {
		tb.Fatal(err)
	}
	return mustSampler(tb, sys), w, d
}

func mustSampler(tb testing.TB, sys *mem.System) *Sampler {
	tb.Helper()
	s, err := NewSampler(sys, 0.05, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestTickPathZeroAllocs pins the satellite requirement: once the sampler's
// scratch buffers are warm, a full BeginTick+RecordAccesses tick performs
// zero heap allocations. The seed implementation rebuilt a
// map[mem.PageID]struct{} every tick; the generation-stamped dense slice
// must not regress back to that.
func TestTickPathZeroAllocs(t *testing.T) {
	s, w, d := newAllocBenchSampler(t)
	// Warm up scratch buffers (seen slice, draws, tickPages).
	for i := 0; i < 8; i++ {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	}
	allocs := testing.AllocsPerRun(32, func() {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	})
	if allocs != 0 {
		t.Fatalf("tick path allocs/op = %g, want 0", allocs)
	}
}

// TestTickPagesMatchesReferenceDedup checks the generation-stamped dedup
// yields the same unique pages, in the same first-sample order, as the
// retained map-based reference path, over many ticks with an identical
// RNG stream.
func TestTickPagesMatchesReferenceDedup(t *testing.T) {
	fast, wf, df := newAllocBenchSampler(t)
	ref, wr, dr := newAllocBenchSampler(t)
	ref.SetReferenceDedup(true)

	rng := rand.New(rand.NewSource(99))
	for tick := 0; tick < 50; tick++ {
		n := uint64(1_000 + rng.Intn(100_000))
		fast.BeginTick()
		ref.BeginTick()
		fast.RecordAccesses(wf, df, n)
		ref.RecordAccesses(wr, dr, n)

		fp, rp := fast.TickPages(wf), ref.TickPages(wr)
		if len(fp) != len(rp) {
			t.Fatalf("tick %d: fast %d pages, ref %d pages", tick, len(fp), len(rp))
		}
		for i := range fp {
			if fp[i] != rp[i] {
				t.Fatalf("tick %d: page[%d] fast=%d ref=%d", tick, i, fp[i], rp[i])
			}
		}
		if fast.TickFMemAccesses(wf) != ref.TickFMemAccesses(wr) ||
			fast.TickSMemAccesses(wf) != ref.TickSMemAccesses(wr) {
			t.Fatalf("tick %d: tier counts diverge: fast %d/%d ref %d/%d", tick,
				fast.TickFMemAccesses(wf), fast.TickSMemAccesses(wf),
				ref.TickFMemAccesses(wr), ref.TickSMemAccesses(wr))
		}
	}
}

// TestGenerationWraparound forces the per-tick generation counter through
// a uint32 wrap and checks stale stamps cannot leak a page into a later
// tick's unique-page list.
func TestGenerationWraparound(t *testing.T) {
	s, w, d := newAllocBenchSampler(t)
	s.BeginTick()
	s.RecordAccesses(w, d, 100_000)
	before := len(s.TickPages(w))
	if before == 0 {
		t.Fatal("no pages sampled")
	}

	s.gen = ^uint32(0) // next BeginTick wraps to 0 and must reset
	s.BeginTick()
	if s.gen != 1 {
		t.Fatalf("gen after wraparound = %d, want 1", s.gen)
	}
	for pid, g := range s.seen {
		if g != 0 {
			t.Fatalf("seen[%d] = %d after wraparound, want 0", pid, g)
		}
	}
	s.RecordAccesses(w, d, 100_000)
	if got := len(s.TickPages(w)); got == 0 {
		t.Fatal("no pages recorded after wraparound")
	}
}

// BenchmarkRecordTick is the BenchmarkDraw-style regression benchmark for
// the satellite: it reports allocs/op for the full tick path so any
// reintroduced per-tick allocation is visible in benchmark output.
func BenchmarkRecordTick(b *testing.B) {
	s, w, d := newAllocBenchSampler(b)
	s.BeginTick()
	s.RecordAccesses(w, d, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	}
}

// TestSampledThisTick checks, on both dedup paths, that SampledThisTick
// is exactly membership in the union of this tick's TickPages sets: it
// holds for every page sampled since BeginTick, for any workload, and
// for no other page, including across BeginTick and (on the stamped
// path) across the generation wrap.
func TestSampledThisTick(t *testing.T) {
	for _, ref := range []bool{false, true} {
		s, w, d := newAllocBenchSampler(t)
		s.SetReferenceDedup(ref)
		w2, err := s.sys.AddWorkload(1<<30, mem.TierSMem)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := dist.NewUniform(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string, wantAny bool) {
			t.Helper()
			want := map[mem.PageID]bool{}
			for _, id := range []mem.WorkloadID{w, w2} {
				for _, pid := range s.TickPages(id) {
					want[pid] = true
				}
			}
			if wantAny != (len(want) > 0) {
				t.Fatalf("ref=%v %s: %d pages sampled, want any: %v", ref, stage, len(want), wantAny)
			}
			for pid := mem.PageID(0); int(pid) < s.sys.NumPages(); pid++ {
				if got := s.SampledThisTick(pid); got != want[pid] {
					t.Fatalf("ref=%v %s: SampledThisTick(%d) = %v, want %v", ref, stage, pid, got, want[pid])
				}
			}
		}
		check("before the first tick", false)
		record := func() {
			s.RecordAccesses(w, d, 20_000)
			s.RecordAccesses(w2, d2, 20_000)
		}
		for tick := 0; tick < 3; tick++ {
			s.BeginTick()
			check("after BeginTick", false)
			record()
			check("after recording", true)
		}
		if !ref {
			s.gen = ^uint32(0) // stamp this tick with the last generation
			record()
		}
		s.BeginTick()
		check("after the generation wrap", false)
		record()
		check("recording after the generation wrap", true)
	}
}
