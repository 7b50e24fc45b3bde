package policy

import (
	"fmt"
	"sort"

	"github.com/tieredmem/mtat/internal/damon"
	"github.com/tieredmem/mtat/internal/mem"
)

// RegionMEMTIS is MEMTIS's global-hotness placement driven by DAMON-style
// region monitoring instead of per-page counters: each workload gets an
// adaptive region monitor (bounded bookkeeping), sampled accesses feed the
// monitors, and placement keeps the pages of the globally hottest regions
// in FMem. The "monitoring" experiment compares it against per-page
// MEMTIS to quantify the fidelity/bookkeeping trade-off the paper's
// related work (Telescope/DAMON) navigates.
type RegionMEMTIS struct {
	// Damon configures each workload's monitor.
	Damon damon.Config
	// AggInterval is the region aggregation cadence in seconds.
	AggInterval float64

	monitors map[mem.WorkloadID]*damon.Monitor
	lastAgg  float64
	promote  []mem.PageID
	demote   []mem.PageID
	ids      []mem.WorkloadID
}

var _ Policy = (*RegionMEMTIS)(nil)

// NewRegionMEMTIS returns a region-monitored MEMTIS with DAMON defaults.
func NewRegionMEMTIS() *RegionMEMTIS {
	return &RegionMEMTIS{
		Damon:       damon.DefaultConfig(),
		AggInterval: 1,
		monitors:    make(map[mem.WorkloadID]*damon.Monitor),
	}
}

// Name implements Policy.
func (p *RegionMEMTIS) Name() string { return "MEMTIS (regions)" }

// Init implements Policy: one monitor per workload over its (contiguous)
// page range.
func (p *RegionMEMTIS) Init(ctx *Context) error {
	clear(p.monitors)
	for _, id := range workloadIDs(nil, ctx) {
		pages := ctx.Sys.WorkloadPages(id)
		if len(pages) == 0 {
			return fmt.Errorf("policy: workload %d has no pages", id)
		}
		cfg := p.Damon
		cfg.Seed += int64(id)
		m, err := damon.NewMonitor(pages[0], pages[len(pages)-1]+1, cfg)
		if err != nil {
			return err
		}
		p.monitors[id] = m
	}
	p.lastAgg = 0
	return nil
}

// Tick implements Policy.
func (p *RegionMEMTIS) Tick(ctx *Context) error {
	sys := ctx.Sys
	p.ids = workloadIDs(p.ids, ctx)
	ids := p.ids

	// Feed this tick's sampled pages into the monitors. (At realistic
	// sampling rates per-page counts within one tick are almost always
	// 0 or 1, so unique-page feeding approximates count feeding.)
	for _, id := range ids {
		mon := p.monitors[id]
		for _, pid := range ctx.Sampler.TickPages(id) {
			mon.RecordAccess(pid)
		}
	}
	if ctx.Now-p.lastAgg >= p.AggInterval {
		for _, mon := range p.monitors {
			mon.Aggregate()
		}
		p.lastAgg = ctx.Now
	}

	// Global placement: rank all regions by per-page smoothed rate, mark
	// the top pages (up to FMem capacity) as the hot set.
	type scored struct {
		rate  float64
		start mem.PageID
		end   mem.PageID
	}
	var regions []scored
	for _, id := range ids {
		for _, r := range p.monitors[id].Regions() {
			rate := 0.0
			if r.Len() > 0 {
				rate = r.Smoothed / float64(r.Len())
			}
			regions = append(regions, scored{rate, r.Start, r.End})
		}
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].rate > regions[j].rate })

	capacity := sys.FMemCapacityPages()
	p.promote = p.promote[:0]
	p.demote = p.demote[:0]
	filled := 0
	for _, r := range regions {
		for pid := r.start; pid < r.end; pid++ {
			if filled < capacity {
				if !sys.PageInFMem(pid) {
					p.promote = append(p.promote, pid)
				}
				filled++
			} else if sys.PageInFMem(pid) {
				p.demote = append(p.demote, pid)
			}
		}
	}
	// Demote coldest first: p.demote was built hottest-first, so reverse.
	for i, j := 0, len(p.demote)-1; i < j; i, j = i+1, j-1 {
		p.demote[i], p.demote[j] = p.demote[j], p.demote[i]
	}
	sys.Exchange(p.promote, p.demote)
	return nil
}

// LCStall implements Policy.
func (p *RegionMEMTIS) LCStall() float64 { return 0 }

// TotalRegions returns the monitors' combined bookkeeping footprint.
func (p *RegionMEMTIS) TotalRegions() int {
	n := 0
	for _, m := range p.monitors {
		n += m.NumRegions()
	}
	return n
}
