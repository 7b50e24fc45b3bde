package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/simtest"
)

// cellRecord is everything the benchmark keeps about one executed cell.
// Durations are host wall seconds. The traced-only fields stay zero in an
// untraced run.
type cellRecord struct {
	Label       string  `json:"label"`
	Round       int     `json:"round"`
	Policy      string  `json:"policy"`
	Scale       int     `json:"scale"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Check       string  `json:"check"`
	CellS       float64 `json:"cell_s"`
	SpecS       float64 `json:"spec_s"`
	TrainS      float64 `json:"train_s"`
	NewRunnerS  float64 `json:"new_runner_s"`
	RunS        float64 `json:"run_s"`
	Ticks       int64   `json:"ticks"`

	Core *sim.CoreStats `json:"core,omitempty"`

	InitS        float64 `json:"init_s,omitempty"`
	TickS        float64 `json:"tick_s,omitempty"`
	TrainDecideS float64 `json:"train_decide_s,omitempty"`
	SACUpdates   int     `json:"sac_updates,omitempty"`
	PPMDecideS   float64 `json:"ppm_decide_s,omitempty"`
	PPMDecisions int     `json:"ppm_decisions,omitempty"`

	steps [5]time.Time // spec, train, new_runner and run boundaries
	timed *timedPolicy
}

// ok reports whether the cell ran and passed its output check.
func (c *cellRecord) ok() bool { return c.Check == checkOK || c.Check == checkUnchecked }

const (
	checkOK        = "ok"
	checkUnchecked = "unchecked"
)

// runCell executes one cell through the program's public entry points —
// spec → sim.NewPolicy (pretraining included) → sim.NewRunner →
// (*sim.Runner).RunContext — timing each step from outside. With timed
// set, the policy is wrapped in timedPolicy and the PP-M and SAC counters
// are read around the evaluated run; otherwise only the step timestamps
// are taken.
func runCell(ctx context.Context, def cellDef, round int, timed bool) (*cellRecord, *sim.Result, error) {
	rec := &cellRecord{Label: def.Label, Round: round, Policy: def.Spec.PolicyName(), Scale: def.Spec.Scale}
	t := &rec.steps
	t[0] = time.Now()
	scn, err := def.Spec.Scenario()
	if err != nil {
		return rec, nil, fmt.Errorf("%s: spec: %w", def.Label, err)
	}
	t[1] = time.Now()
	pol, err := sim.NewPolicy(ctx, def.Spec.PolicyName(), scn, def.Spec.Episodes)
	if err != nil {
		return rec, nil, fmt.Errorf("%s: policy: %w", def.Label, err)
	}
	t[2] = time.Now()
	var ppm *core.PPM
	var trainDecide time.Duration
	var trainDecisions int
	if m, ok := pol.(*core.MTAT); ok && timed {
		ppm = m.PPM()
		trainDecide, trainDecisions = ppm.ComputeTime(), ppm.Decisions()
		rec.TrainDecideS = trainDecide.Seconds()
		rec.SACUpdates = ppm.Agent().TotalUpdates()
	}
	runPol := pol
	if timed {
		rec.timed = &timedPolicy{Policy: pol}
		runPol = rec.timed
	}
	r, err := sim.NewRunner(scn, runPol)
	if err != nil {
		return rec, nil, fmt.Errorf("%s: runner: %w", def.Label, err)
	}
	t[3] = time.Now()
	res, err := r.RunContext(ctx)
	if err != nil {
		return rec, nil, fmt.Errorf("%s: run: %w", def.Label, err)
	}
	t[4] = time.Now()

	rec.SpecS = t[1].Sub(t[0]).Seconds()
	rec.TrainS = t[2].Sub(t[1]).Seconds()
	rec.NewRunnerS = t[3].Sub(t[2]).Seconds()
	rec.RunS = t[4].Sub(t[3]).Seconds()
	rec.Ticks = int64(res.Ticks)
	rec.Core = res.Core
	if timed {
		rec.InitS = rec.timed.initDur.Seconds()
		rec.TickS = rec.timed.tickDur.Seconds()
	}
	if ppm != nil {
		rec.PPMDecideS = (ppm.ComputeTime() - trainDecide).Seconds()
		rec.PPMDecisions = ppm.Decisions() - trainDecisions
	}
	return rec, res, nil
}

// recordSpans records a traced cell as spans: the cell from the worker's
// view (execution plus output check), its four steps, and the wrapper's
// policy.init and aggregated policy.tick.
func recordSpans(tr *tracer, rec *cellRecord, start, end time.Time) {
	t, p := rec.steps, rec.timed
	trace := fmt.Sprintf("%s#%d", rec.Label, rec.Round)
	cell := tr.add(trace, 0, "cell", start, end, nil)
	if p == nil { // failed before the runner was built
		return
	}
	tr.add(trace, cell, "spec", t[0], t[1], nil)
	tr.add(trace, cell, "train", t[1], t[2], map[string]int64{
		"decide_ns": int64(rec.TrainDecideS * 1e9), "sac_updates": int64(rec.SACUpdates)})
	nr := tr.add(trace, cell, "new_runner", t[2], t[3], nil)
	tr.add(trace, nr, "policy.init", t[2], t[3], map[string]int64{"busy_ns": p.initDur.Nanoseconds()})
	run := tr.add(trace, cell, "run", t[3], t[4], map[string]int64{"ticks": rec.Ticks})
	tr.add(trace, run, "policy.tick", p.firstTick, p.lastTick, map[string]int64{
		"busy_ns": p.tickDur.Nanoseconds(), "calls": p.ticks})
}

// job is one cell to run: its position in the caller's order and the
// round it belongs to.
type job struct {
	i     int
	round int
	def   cellDef
}

// runJobs executes jobs on at most workers goroutines until jobs is
// closed, checking each output against want (see checkCell). It returns
// records and results ordered by job index; a failed cell is recorded
// with its error as the verdict while the others still run. A non-nil
// tracer times the policy and records spans.
func runJobs(ctx context.Context, jobs <-chan job, workers int, tr *tracer, want map[string]string, pinned bool) ([]*cellRecord, []*sim.Result) {
	type done struct {
		i   int
		rec *cellRecord
		res *sim.Result
	}
	var (
		mu  sync.Mutex
		out []done
		wg  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				start := time.Now()
				rec, res, err := runCell(ctx, j.def, j.round, tr != nil)
				if err != nil {
					rec.Check = "error: " + err.Error()
				} else {
					checkCell(rec, j.def.Spec, res, want, pinned)
				}
				end := time.Now()
				rec.CellS = end.Sub(start).Seconds()
				if tr != nil {
					recordSpans(tr, rec, start, end)
				}
				mu.Lock()
				out = append(out, done{j.i, rec, res})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	recs := make([]*cellRecord, len(out))
	results := make([]*sim.Result, len(out))
	for k, d := range out {
		recs[k], results[k] = d.rec, d.res
	}
	return recs, results
}

// runPool runs a fixed list of cells as one round (see runJobs).
func runPool(ctx context.Context, defs []cellDef, workers int, tr *tracer, want map[string]string, pinned bool) ([]*cellRecord, []*sim.Result) {
	jobs := make(chan job)
	go func() {
		defer close(jobs)
		for i, def := range defs {
			jobs <- job{i: i, def: def}
		}
	}()
	return runJobs(ctx, jobs, workers, tr, want, pinned)
}

// checkCell sets the cell's fingerprint and check verdict. Structural
// invariants are checked on every seed; at the default seed the
// fingerprint must also equal the committed digest.
func checkCell(rec *cellRecord, spec sim.RunSpec, res *sim.Result, want map[string]string, pinned bool) {
	rec.Fingerprint = simtest.ResultFingerprint(res)
	if err := checkInvariants(spec, res); err != nil {
		rec.Check = "invalid: " + err.Error()
		return
	}
	if !pinned {
		rec.Check = checkUnchecked
		return
	}
	switch exp, ok := want[rec.Label]; {
	case !ok:
		rec.Check = "no expected digest"
	case exp != rec.Fingerprint:
		rec.Check = "MISMATCH want " + exp
	default:
		rec.Check = checkOK
	}
}

// policyNames maps the spec policy names the workloads use to the name
// the policy reports in sim.Result.
var policyNames = map[string]string{
	"memtis": "MEMTIS", "tpp": "TPP", "vtmm": "vTMM", "heuristic": "Heuristic",
	"mtat-full": "MTAT (Full)",
}

// checkInvariants checks what must hold for any seed: the run covered
// the whole spec, ran the requested policy, and produced finite,
// in-range aggregates.
func checkInvariants(spec sim.RunSpec, res *sim.Result) error {
	scn, err := spec.Scenario()
	if err != nil {
		return err
	}
	dur, tick := scn.DurationSeconds, scn.TickSeconds
	if dur == 0 {
		dur = scn.Load.Duration()
	}
	if tick == 0 {
		tick = 0.1
	}
	if want := int(math.Round(dur / tick)); res.Ticks != want {
		return fmt.Errorf("ran %d ticks, want %d", res.Ticks, want)
	}
	if res.Core == nil || res.Core.Ticks != int64(res.Ticks) || res.Core.PEBSSamples <= 0 {
		return fmt.Errorf("core stats missing or inconsistent")
	}
	if want := policyNames[spec.PolicyName()]; res.Policy != want {
		return fmt.Errorf("policy %q, want %q", res.Policy, want)
	}
	if len(res.BEs) != len(spec.BEs) {
		return fmt.Errorf("%d BE outcomes, want %d", len(res.BEs), len(spec.BEs))
	}
	for _, v := range []float64{res.LCViolationRate, res.LCMaxP99, res.LCMeanP99, res.BEFairness, res.BEThroughput} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("non-finite or negative aggregate %v", v)
		}
	}
	if res.LCViolationRate > 1 {
		return fmt.Errorf("violation rate %v > 1", res.LCViolationRate)
	}
	return nil
}
