// Package pebs substitutes for Intel Processor Event-Based Sampling (§4 of
// the paper): it converts each workload's logical access stream into
// sampled per-page access counts, and tallies per-tick FMem/SMem access
// totals. The real PP-E samples MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM
// events into PTE-linked counters; here, sampling is modeled as a Poisson
// thinning of the simulated access stream, which reproduces both the
// sampling rate and the sampling noise that the downstream histograms see.
package pebs

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
)

// Sampler draws sampled page accesses and maintains per-tick tier access
// counters per workload. It is not safe for concurrent use.
type Sampler struct {
	sys  *mem.System
	rate float64
	rng  *rand.Rand

	// Per-tick, per-workload sampled access counts by tier.
	fmemTick []uint64
	smemTick []uint64
	// Per-tick sampled pages per workload (unique, in first-sample
	// order). Fault-driven policies like TPP promote on these.
	tickPages [][]mem.PageID
	// Per-page generation stamps: seen[pid] == gen means pid was already
	// sampled this tick. BeginTick bumps gen, so resetting the set is O(1)
	// instead of clearing a map.
	seen []uint32
	gen  uint32
	// Reference (seed) dedup path for the differential harness.
	refDedup    bool
	tickPageSet map[mem.PageID]struct{}
	// Scratch buffer for batched distribution draws.
	draws []int
	// Cumulative sampled counts (never reset; used by overhead accounting).
	totalSamples uint64
}

// NewSampler returns a sampler over sys with the given sampling rate
// (fraction of accesses that produce a PEBS record, in (0, 1]), seeded
// deterministically from seed.
func NewSampler(sys *mem.System, rate float64, seed int64) (*Sampler, error) {
	if sys == nil {
		return nil, fmt.Errorf("pebs: sys must not be nil")
	}
	if rate <= 0 || rate > 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("pebs: rate must be in (0,1], got %g", rate)
	}
	return &Sampler{
		sys:  sys,
		rate: rate,
		rng:  rand.New(rand.NewSource(seed)),
		gen:  1,
	}, nil
}

// Rate returns the sampling rate.
func (s *Sampler) Rate() float64 { return s.rate }

// TotalSamples returns the cumulative number of sampled accesses.
func (s *Sampler) TotalSamples() uint64 { return s.totalSamples }

// SetReferenceDedup switches per-tick page dedup to the original
// map-backed implementation. Output is identical either way; the
// differential harness uses this as the retained reference path.
func (s *Sampler) SetReferenceDedup(ref bool) {
	s.refDedup = ref
	if ref && s.tickPageSet == nil {
		s.tickPageSet = make(map[mem.PageID]struct{})
	}
}

// BeginTick resets the per-tick tier counters. Call once per simulation
// tick before recording accesses.
func (s *Sampler) BeginTick() {
	n := s.sys.NumWorkloads()
	if len(s.fmemTick) < n {
		s.fmemTick = make([]uint64, n)
		s.smemTick = make([]uint64, n)
		old := s.tickPages
		s.tickPages = make([][]mem.PageID, n)
		copy(s.tickPages, old)
	}
	for i := 0; i < n; i++ {
		s.fmemTick[i] = 0
		s.smemTick[i] = 0
		s.tickPages[i] = s.tickPages[i][:0]
	}
	if s.refDedup {
		clear(s.tickPageSet)
		return
	}
	if np := s.sys.NumPages(); len(s.seen) < np {
		grown := make([]uint32, np)
		copy(grown, s.seen)
		s.seen = grown
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 4B ticks ago are stale
		clear(s.seen)
		s.gen = 1
	}
}

// RecordAccesses samples from n logical accesses by workload w, whose
// access popularity over its pages follows d (item ranks map onto the
// workload's pages in allocation order). Sampled accesses increment page
// hotness counters and the per-tick tier counters.
func (s *Sampler) RecordAccesses(w mem.WorkloadID, d dist.Distribution, n uint64) {
	if n == 0 {
		return
	}
	pages := s.sys.WorkloadPages(w)
	if len(pages) == 0 {
		return
	}
	k := s.poisson(float64(n) * s.rate)
	itemsPerPage := float64(d.N()) / float64(len(pages))
	if itemsPerPage <= 0 {
		itemsPerPage = 1
	}
	// Batch all RNG draws up front into the scratch buffer. Processing
	// below consumes no randomness, so the RNG stream is identical to
	// drawing one sample per loop iteration.
	if uint64(cap(s.draws)) < k {
		s.draws = make([]int, k)
	}
	s.draws = s.draws[:k]
	for i := range s.draws {
		s.draws[i] = d.Sample(s.rng)
	}
	fmemN, smemN := s.fmemTick[w], s.smemTick[w]
	for _, item := range s.draws {
		pageIdx := int(float64(item) / itemsPerPage)
		if pageIdx >= len(pages) {
			pageIdx = len(pages) - 1
		}
		pid := pages[pageIdx]
		s.sys.AddHotness(pid, 1)
		if s.sys.PageInFMem(pid) {
			fmemN++
		} else {
			smemN++
		}
		if s.refDedup {
			if _, dup := s.tickPageSet[pid]; !dup {
				s.tickPageSet[pid] = struct{}{}
				s.tickPages[w] = append(s.tickPages[w], pid)
			}
		} else if s.seen[pid] != s.gen {
			s.seen[pid] = s.gen
			s.tickPages[w] = append(s.tickPages[w], pid)
		}
	}
	s.fmemTick[w], s.smemTick[w] = fmemN, smemN
	s.totalSamples += k
}

// TickPages returns the unique pages of workload w sampled this tick, in
// first-sample order. The slice is owned by the sampler and valid until
// the next BeginTick.
func (s *Sampler) TickPages(w mem.WorkloadID) []mem.PageID {
	if int(w) >= len(s.tickPages) {
		return nil
	}
	return s.tickPages[w]
}

// SampledThisTick reports whether page pid has been sampled, for any
// workload, since the last BeginTick: it is membership in the union of
// the TickPages sets, read from the dedup state in O(1).
func (s *Sampler) SampledThisTick(pid mem.PageID) bool {
	if s.refDedup {
		_, ok := s.tickPageSet[pid]
		return ok
	}
	return int(pid) < len(s.seen) && s.seen[pid] == s.gen
}

// TickFMemAccesses returns the sampled FMem access count for w this tick.
func (s *Sampler) TickFMemAccesses(w mem.WorkloadID) uint64 {
	if int(w) >= len(s.fmemTick) {
		return 0
	}
	return s.fmemTick[w]
}

// TickSMemAccesses returns the sampled SMem access count for w this tick.
func (s *Sampler) TickSMemAccesses(w mem.WorkloadID) uint64 {
	if int(w) >= len(s.smemTick) {
		return 0
	}
	return s.smemTick[w]
}

// TickFMemAccessRatio returns the fraction of w's sampled accesses that
// hit FMem this tick — the "FMem Access Ratio" RL state input (§3.2.1).
// Returns 0 when no accesses were sampled.
func (s *Sampler) TickFMemAccessRatio(w mem.WorkloadID) float64 {
	f := s.TickFMemAccesses(w)
	sm := s.TickSMemAccesses(w)
	if f+sm == 0 {
		return 0
	}
	return float64(f) / float64(f+sm)
}

// poisson draws from a Poisson distribution with the given mean, using
// Knuth's method for small means and a clamped normal approximation for
// large ones.
func (s *Sampler) poisson(mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	if mean > 256 {
		v := mean + math.Sqrt(mean)*s.rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	l := math.Exp(-mean)
	var k uint64
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
