package main

import (
	"fmt"

	"github.com/tieredmem/mtat/internal/sim"
)

// defaultSeed is the workload seed whose cell fingerprints are pinned in
// digests.json. Any other seed is a held-out seed: its fingerprints are
// printed but not compared.
const defaultSeed = 1

// seedsPerCycle is how many distinct cell seeds an in-process workload
// cycles through. Rounds reuse them, so every cell of the default seed has
// a committed digest however long a run lasts.
const seedsPerCycle = 3

// bes is the Table 2 best-effort mix every cell co-locates with redis.
var bes = []string{"sssp", "bfs", "pr", "xsbench"}

// cellDef is one cell of a workload: a label unique within the workload's
// seed cycle and the spec the program receives.
type cellDef struct {
	Label string
	Spec  sim.RunSpec
}

// workload describes one benchmark workload.
type workload struct {
	Name string
	// Daemon marks the mtatd-short workload; the others run in-process.
	Daemon bool
	// Round returns the cells of round r for workload seed seed. Rounds
	// run back to back, each as a batch over the worker pool.
	Round func(seed int64, r int) []cellDef
	// CycleRounds is the number of rounds after which the cell set
	// repeats; digests cover rounds [0, CycleRounds) at defaultSeed.
	CycleRounds int
}

var workloads = []workload{
	{Name: "sweep-baselines", Round: baselinesRound, CycleRounds: seedsPerCycle},
	{Name: "mtat-sweep", Round: mtatRound, CycleRounds: seedsPerCycle},
	{Name: "mtatd-short", Daemon: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// cellSeed derives the seed of round r's cells from the workload seed.
func cellSeed(seed int64, r int) int64 {
	return seed*1000 + int64(r%seedsPerCycle)
}

// baselinesRound is one sweep-baselines round: the four non-learning
// policies under the Figure 7 ramp, no pretraining, at paper scale with
// one seed and at 1/16 scale with two. A paper-scale cell costs about
// twice a 1/16-scale one, so each scale gets about half the round's host
// time. Paper-scale cells come first so the longest cells start first and
// the round's tail stays short.
func baselinesRound(seed int64, r int) []cellDef {
	s := cellSeed(seed, r)
	var defs []cellDef
	for _, c := range []struct {
		scale int
		seed  int64
	}{{1, s}, {16, s}, {16, s + 100}} {
		for _, pol := range []string{"memtis", "tpp", "vtmm", "heuristic"} {
			defs = append(defs, cellDef{
				Label: fmt.Sprintf("%s/scale%d/seed%d", pol, c.scale, c.seed),
				Spec: sim.RunSpec{
					LC: "redis", BEs: bes, Policy: pol, Scale: c.scale, Seed: c.seed,
					Load: &sim.LoadSpec{Kind: "fig7"},
				},
			})
		}
	}
	return defs
}

// mtatEpisodes is mtat-sweep's reduced in-process pretraining budget.
const mtatEpisodes = 3

// loadKinds are the load kinds of every mtat-sweep round. Every pattern
// lasts 240 s (2400 ticks), like the Figure 7 ramp the agent trains on,
// so the evaluated runs cost the same.
var loadKinds = []string{"fig7", "diurnal", "bursts", "steps"}

var loadSpecs = map[string]sim.LoadSpec{
	"fig7":    {Kind: "fig7"},
	"diurnal": {Kind: "diurnal", Low: 0.2, High: 1.0, PeriodSeconds: 240, Cycles: 1},
	"bursts":  {Kind: "bursts", Base: 0.3, Peak: 0.9, PeriodSeconds: 60, BurstSeconds: 15, TotalSeconds: 240},
	"steps":   {Kind: "steps", Fracs: []float64{0.3, 0.6, 0.9, 0.6}, StepSeconds: 60},
}

// mtatRound is one mtat-sweep round: four mtat-full cells at 1/16 scale
// that share a seed, and therefore a pretraining key, one per load kind.
// Every round has the same mix, so a run's mix does not depend on how
// many rounds fit in its window.
func mtatRound(seed int64, r int) []cellDef {
	s := cellSeed(seed, r)
	var defs []cellDef
	for _, kind := range loadKinds {
		load := loadSpecs[kind]
		defs = append(defs, cellDef{
			Label: fmt.Sprintf("mtat-full/%s/seed%d", kind, s),
			Spec: sim.RunSpec{
				LC: "redis", BEs: bes, Policy: "mtat-full", Scale: 16, Seed: s,
				Load: &load, Episodes: mtatEpisodes,
			},
		})
	}
	return defs
}

// daemonSpec is the i-th cell a mtatd-short client submits: 100 ticks of
// constant half load at 1/16 scale, alternating memtis and tpp, each with
// its own seed.
func daemonSpec(seed int64, i int) sim.RunSpec {
	pol := "memtis"
	if i%2 == 1 {
		pol = "tpp"
	}
	return sim.RunSpec{
		LC: "redis", BEs: bes, Policy: pol, Scale: 16, Seed: seed*100000 + int64(i),
		Load:            &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 10},
		DurationSeconds: 10,
	}
}

// cycleCells returns every distinct cell of an in-process workload's
// seed cycle, in round order.
func cycleCells(w workload, seed int64) []cellDef {
	var defs []cellDef
	for r := 0; r < w.CycleRounds; r++ {
		defs = append(defs, w.Round(seed, r)...)
	}
	return defs
}
