package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/simtest"
)

// shortCells are cheap stand-ins for the workloads' cells: one baseline
// and one mtat-full cell with a single pretraining episode.
var shortCells = []cellDef{
	{Label: "memtis-short", Spec: sim.RunSpec{LC: "redis", BEs: bes, Policy: "memtis", Scale: 16, Seed: 7,
		Load: &sim.LoadSpec{Kind: "constant", Frac: 0.6, DurationSeconds: 20}, DurationSeconds: 20}},
	{Label: "mtat-short", Spec: sim.RunSpec{LC: "redis", BEs: bes, Policy: "mtat-full", Scale: 16, Seed: 7,
		Load: &sim.LoadSpec{Kind: "constant", Frac: 0.6, DurationSeconds: 20}, DurationSeconds: 20, Episodes: 1}},
}

// TestTimedPolicySameFingerprint shows the benchmark's cell pool, traced
// or not, measures the same program as sim.RunCells: neither the pool nor
// the timing wrapper changes an output. The cells share one two-worker
// pool, as in a benchmark run.
func TestTimedPolicySameFingerprint(t *testing.T) {
	ctx := context.Background()
	cells := make([]sim.Cell, len(shortCells))
	for i, def := range shortCells {
		cells[i] = sim.Cell{Index: i, Label: def.Label, Spec: def.Spec}
	}
	bare := sim.RunCells(ctx, cells, 2, false)
	tr := &tracer{}
	recs, results := runPool(ctx, shortCells, 2, tr, nil, false)
	plain, plainResults := runPool(ctx, shortCells, 2, nil, nil, false)
	for i, rec := range recs {
		if bare[i].Err != nil {
			t.Fatal(bare[i].Err)
		}
		if plain[i].Check != checkUnchecked {
			t.Fatalf("%s untraced: %s", rec.Label, plain[i].Check)
		}
		if rec.Check != checkUnchecked {
			t.Fatalf("%s traced: %s", rec.Label, rec.Check)
		}
		want := simtest.ResultFingerprint(bare[i].Result)
		if got := simtest.ResultFingerprint(results[i]); got != want {
			t.Errorf("%s: wrapped fingerprint %s, bare %s", rec.Label, got, want)
		}
		if got := simtest.ResultFingerprint(plainResults[i]); got != want {
			t.Errorf("%s: pool fingerprint %s, RunCells %s", rec.Label, got, want)
		}
		if rec.TickS <= 0 || rec.timed.ticks != rec.Ticks {
			t.Errorf("%s: wrapper timed %d ticks (%.3fs), run had %d", rec.Label, rec.timed.ticks, rec.TickS, rec.Ticks)
		}
		if rec.Policy == "mtat-full" && (rec.SACUpdates == 0 || rec.PPMDecisions == 0) {
			t.Errorf("%s: read no SAC updates (%d) or PP-M decisions (%d)", rec.Label, rec.SACUpdates, rec.PPMDecisions)
		}
	}
	count := map[string]int{}
	for _, s := range tr.spans {
		count[s.Name]++
	}
	for _, n := range []string{"cell", "spec", "train", "new_runner", "policy.init", "run", "policy.tick"} {
		if count[n] != len(shortCells) {
			t.Errorf("%d %s spans, want %d", count[n], n, len(shortCells))
		}
	}
}

// TestDiffSummary checks that the daemon-twin comparison accepts an equal
// summary and names a field that differs.
func TestDiffSummary(t *testing.T) {
	res := sim.RunCells(context.Background(), []sim.Cell{{Spec: shortCells[0].Spec}}, 1, false)[0].Result
	sum := func() *server.RunResult {
		out := &server.RunResult{
			Policy: res.Policy, SLOMet: res.SLOMet, LCViolationRate: res.LCViolationRate,
			LCMaxP99: res.LCMaxP99, LCMeanP99: res.LCMeanP99, BEFairness: res.BEFairness,
			BEThroughput: res.BEThroughput, MigratedBytes: res.MigratedBytes, Ticks: res.Ticks,
			Core: res.Core,
		}
		for _, be := range res.BEs {
			out.BEs = append(out.BEs, server.BEOutcome{Name: be.Name, NP: be.NP,
				Throughput: be.Throughput, AvgFMemPages: be.AvgFMemPages})
		}
		return out
	}
	if d := diffSummary(sum(), res); d != "" {
		t.Fatalf("equal summary reported as %q", d)
	}
	got := sum()
	got.BEs[1].NP = math.Nextafter(got.BEs[1].NP, 2)
	if d := diffSummary(got, res); !strings.Contains(d, ".np") {
		t.Errorf("one-ulp NP change reported as %q", d)
	}
	got = sum()
	core := *got.Core
	core.PagesPromoted++
	got.Core = &core
	if d := diffSummary(got, res); d == "" {
		t.Error("changed core counter not reported")
	}
}

// TestWrongDigestFails checks that a cell whose fingerprint differs from
// the expected digest counts as failed, and a matching one passes.
func TestWrongDigestFails(t *testing.T) {
	def := shortCells[0]
	ctx := context.Background()
	recs, results := runPool(ctx, []cellDef{def}, 1, nil, nil, false)
	fp := recs[0].Fingerprint

	for _, tc := range []struct {
		name string
		want map[string]string
		ok   bool
	}{
		{"match", map[string]string{def.Label: fp}, true},
		{"wrong", map[string]string{def.Label: strings.Repeat("0", len(fp))}, false},
		{"missing", map[string]string{}, false},
	} {
		rec := &cellRecord{Label: def.Label}
		checkCell(rec, def.Spec, results[0], tc.want, true)
		if rec.ok() != tc.ok {
			t.Errorf("%s: verdict %q, want ok=%v", tc.name, rec.Check, tc.ok)
		}
	}
	rec := &cellRecord{Label: def.Label}
	checkCell(rec, def.Spec, results[0], nil, false)
	if rec.Check != checkUnchecked {
		t.Errorf("held-out seed: verdict %q, want %q", rec.Check, checkUnchecked)
	}
}

// TestDigestsCoverCycle checks that every cell an in-process workload can
// run at the default seed has a committed digest, and nothing else does.
func TestDigestsCoverCycle(t *testing.T) {
	all, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.Daemon {
			continue
		}
		var labels []string
		for _, def := range cycleCells(w, defaultSeed) {
			labels = append(labels, def.Label)
			if _, ok := all[w.Name][def.Label]; !ok {
				t.Errorf("%s: no digest for %s", w.Name, def.Label)
			}
		}
		if len(all[w.Name]) != len(labels) {
			t.Errorf("%s: %d digests for %d cells", w.Name, len(all[w.Name]), len(labels))
		}
		// Rounds past the cycle repeat its cells.
		for r := 0; r < w.CycleRounds; r++ {
			a, b := w.Round(defaultSeed, r), w.Round(defaultSeed, r+w.CycleRounds)
			for i := range a {
				if a[i].Label != b[i].Label {
					t.Errorf("%s: round %d cell %s, round %d cell %s", w.Name, r, a[i].Label, r+w.CycleRounds, b[i].Label)
				}
			}
		}
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the reported metric
// names in step.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.Name)
	}
	for _, c := range []struct {
		what      string
		json, src []string
	}{
		{"workloads", names(b.Workloads), sorted(wls)},
		{"end_to_end", names(b.EndToEnd), sorted(endToEndNames)},
		{"per_layer", names(b.PerLayer), sorted(perLayerNames)},
	} {
		if strings.Join(c.json, ",") != strings.Join(c.src, ",") {
			t.Errorf("%s: BENCHMARK.json %v, benchmark %v", c.what, c.json, c.src)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}
