package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// pass is one measured window of an in-process workload.
type pass struct {
	recs []*cellRecord
	wall float64 // seconds from the first cell's start to the last cell's end
}

// runInProcess feeds whole rounds of w to the worker pool, starting a new
// round only while the window lasts, and checks every cell's output.
// Rounds are queued back to back with no barrier between them, so workers
// idle only while the last cells finish.
func runInProcess(ctx context.Context, w workload, cfg config, digests map[string]string, tr *tracer) pass {
	start := time.Now()
	jobs := make(chan job)
	go func() {
		defer close(jobs)
		i := 0
		for r := 0; r == 0 || time.Since(start) < cfg.window; r++ {
			for _, def := range w.Round(cfg.seed, r) {
				jobs <- job{i: i, round: r, def: def}
				i++
			}
		}
	}()
	recs, _ := runJobs(ctx, jobs, cfg.workers, tr, digests, cfg.seed == defaultSeed)
	return pass{recs: recs, wall: time.Since(start).Seconds()}
}

// loadDigests reads the committed expected fingerprints: workload name →
// cell label → hex digest, all at defaultSeed.
func loadDigests(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}

// compileCycle is the in-process set-up: compile (RunSpec.Scenario)
// every spec of the workload's seed cycle.
func compileCycle(defs []cellDef) error {
	for _, def := range defs {
		if _, err := def.Spec.Scenario(); err != nil {
			return fmt.Errorf("%s: %w", def.Label, err)
		}
	}
	return nil
}

// inProcessE2E computes the end-to-end metrics of one pass. In-process a
// run is a cell, so the run metrics are the cell metrics.
func inProcessE2E(m *metricSet, p pass) {
	var cellS []float64
	var runS float64
	var ticks int64
	for _, r := range p.recs {
		if !r.ok() {
			continue
		}
		cellS = append(cellS, r.CellS)
		runS += r.RunS
		ticks += r.Ticks
	}
	n := float64(len(cellS))
	m.set("cells_per_min", 60*n/p.wall, "cells/min")
	m.set("cell_s_p50", median(cellS), "s")
	m.set("sim_ticks_per_s", ratio(float64(ticks), runS), "ticks/s")
	m.set("runs_per_s", n/p.wall, "runs/s")
	m.set("run_latency_s_p50", median(cellS), "s")
	m.set("run_latency_s_p95", quantile(cellS, 0.95), "s")
	m.note("%d checked cells in %.2fs of wall", len(cellS), p.wall)
	m.noteLatency("cell_s / run_latency_s", len(cellS))
}

// simLayers adds the per-layer metrics of traced cells: totals over the
// cells, with sim.cells and sim.ticks as their base counts.
func simLayers(m *metricSet, recs []*cellRecord) {
	var n int
	var cell, spec, train, trainDecide, newRunner, initS, run, tick, ppmDecide, ppeTick, gcPause float64
	var sac, decisions, ticks, samples, qTicks, qDraws, promoted, demoted, agings int64
	var mallocs, allocBytes, gcCycles uint64
	byScale := map[int][2]float64{} // scale → {policy tick s, run s}
	for _, r := range recs {
		if !r.ok() || r.Core == nil {
			continue
		}
		n++
		cell += r.CellS
		spec += r.SpecS
		train += r.TrainS
		trainDecide += r.TrainDecideS
		sac += int64(r.SACUpdates)
		newRunner += r.NewRunnerS
		initS += r.InitS
		run += r.RunS
		tick += r.TickS
		ppmDecide += r.PPMDecideS
		decisions += int64(r.PPMDecisions)
		if r.Policy == "mtat-full" {
			ppeTick += r.TickS - r.PPMDecideS
		}
		s := byScale[r.Scale]
		byScale[r.Scale] = [2]float64{s[0] + r.TickS, s[1] + r.RunS}
		c := r.Core
		ticks += c.Ticks
		samples += c.PEBSSamples
		qTicks += c.QueueTicks
		qDraws += c.QueueDraws
		promoted += c.PagesPromoted
		demoted += c.PagesDemoted
		agings += c.HotnessAgings
		mallocs += c.Mallocs
		allocBytes += c.AllocBytes
		gcPause += c.GCPauseSeconds
		gcCycles += uint64(c.GCCycles)
	}
	tickOther := run - tick
	m.set("sim.cells", float64(n), "count")
	m.set("sim.cell_s", cell, "s")
	m.set("sim.spec_s", spec, "s")
	m.set("sim.train_s", train, "s")
	m.set("core.train_decide_s", trainDecide, "s")
	m.set("rl.sac_updates", float64(sac), "count")
	m.set("rl.decide_ns_per_update", ratio(trainDecide*1e9, float64(sac)), "ns")
	m.set("sim.train_tick_other_s", train-trainDecide, "s")
	m.set("sim.new_runner_s", newRunner, "s")
	m.set("policy.init_s", initS, "s")
	m.set("sim.run_s", run, "s")
	m.set("sim.ticks", float64(ticks), "count")
	m.set("policy.tick_s", tick, "s")
	m.set("policy.tick_share", ratio(tick, run), "ratio")
	for _, scale := range []int{1, 16} {
		s := byScale[scale]
		m.set(fmt.Sprintf("policy.tick_share.scale%d", scale), ratio(s[0], s[1]), "ratio")
	}
	m.set("core.ppm_decide_s", ppmDecide, "s")
	m.set("core.ppm_decisions", float64(decisions), "count")
	m.set("core.ppe_tick_s", ppeTick, "s")
	m.set("sim.tick_other_s", tickOther, "s")
	m.set("sim.ns_per_tick", ratio(tickOther*1e9, float64(ticks)), "ns")
	m.set("pebs.samples", float64(samples), "count")
	m.set("pebs.ns_per_sample", ratio(tickOther*1e9, float64(samples)), "ns")
	m.set("queue.ticks", float64(qTicks), "count")
	m.set("queue.draws", float64(qDraws), "count")
	m.set("mem.pages_promoted", float64(promoted), "count")
	m.set("mem.pages_demoted", float64(demoted), "count")
	m.set("mem.hotness_agings", float64(agings), "count")
	m.set("go.mallocs", float64(mallocs), "count")
	m.set("go.alloc_bytes", float64(allocBytes), "bytes")
	m.set("go.gc_pause_s", gcPause, "s")
	m.set("go.gc_cycles", float64(gcCycles), "count")
	other := cell - (spec + train + newRunner + run)
	m.set("sim.cell_other_s", other, "s")
	m.set("sim.cell_other_frac", ratio(other, cell), "ratio")
}

// costRow is one line of the per-(policy, scale) cost table.
type costRow struct {
	Cells     int     `json:"cells"`
	CellS     float64 `json:"cell_s_mean"`
	TrainS    float64 `json:"train_s_mean"`
	RunS      float64 `json:"run_s_mean"`
	TickShare float64 `json:"policy_tick_share"`
}

// costTable splits traced cells by policy and scale: the "what a cell
// costs" table.
func costTable(recs []*cellRecord) map[string]*costRow {
	rows := map[string]*costRow{}
	ticks := map[string]float64{}
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		key := fmt.Sprintf("%s/scale%d", r.Policy, r.Scale)
		row := rows[key]
		if row == nil {
			row = &costRow{}
			rows[key] = row
		}
		row.Cells++
		row.CellS += r.CellS
		row.TrainS += r.TrainS
		row.RunS += r.RunS
		ticks[key] += r.TickS
	}
	for key, row := range rows {
		row.TickShare = ratio(ticks[key], row.RunS)
		n := float64(row.Cells)
		row.CellS /= n
		row.TrainS /= n
		row.RunS /= n
	}
	return rows
}

// recomputeDigests runs every cell of each in-process workload's seed
// cycle at defaultSeed and writes their fingerprints to cfg.digests. Run
// it only when a change is meant to alter the model's output.
func recomputeDigests(ctx context.Context, cfg config) error {
	all := map[string]map[string]string{}
	for _, w := range workloads {
		if w.Daemon {
			continue
		}
		defs := cycleCells(w, defaultSeed)
		recs, _ := runPool(ctx, defs, cfg.workers, nil, nil, false)
		all[w.Name] = map[string]string{}
		for _, rec := range recs {
			if rec.Check != checkUnchecked {
				return fmt.Errorf("%s: %s", rec.Label, rec.Check)
			}
			all[w.Name][rec.Label] = rec.Fingerprint
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.digests, append(data, '\n'), 0o644)
}
