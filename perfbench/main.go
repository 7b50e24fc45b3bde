// Command perfbench is the repository's end-to-end benchmark. It measures
// the paper's unit of work, the cell (sim.RunSpec → optional pretraining →
// simulation → sim.Result), in-process and through a mtatd child process,
// checks every cell's output, and times each layer from outside the
// program. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds it and mtatd first):
//
//	perfbench -workload sweep-baselines -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// measures an untraced window and then a traced one and reports the
// per-layer metrics, including the tracing overhead between the two.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workers  int
	mtatd    string
	digests  string
	out      string
}

// maxWorkers bounds the cell workers, the closed-loop clients and
// mtatd -workers; each is also capped at nproc.
const maxWorkers = 2

// How many times a run repeats its set-up; setup_s is the median. The
// in-process set-up takes tens of microseconds, so each of its samples
// times inProcessSetupBatch set-ups and takes their mean, and the samples
// span up to a second so that a short burst of host load does not set
// the median.
const (
	inProcessSetupReps  = 501
	inProcessSetupBatch = 20
	daemonSetupReps     = 21
)

// outcome is what one benchmark invocation reports.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	cells             []*cellRecord
	runs              []*runRecord
	costs             map[string]*costRow
	mtatdArgs         []string
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, trace int
	var writeDigests bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-baselines, mtat-sweep or mtatd-short")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; cell fingerprints are pinned only at the default")
	flag.IntVar(&seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced window and reports per-layer metrics")
	flag.StringVar(&cfg.mtatd, "mtatd", ".bench_build/bin/mtatd", "mtatd binary for mtatd-short")
	flag.StringVar(&cfg.digests, "digests", "perfbench/digests.json", "expected fingerprints at the default seed")
	flag.StringVar(&cfg.out, "out", ".bench_build/results", "directory for results files and spans")
	flag.BoolVar(&writeDigests, "write-digests", false, "recompute the default-seed fingerprints into -digests and exit")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.workers = min(maxWorkers, runtime.NumCPU())
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	if writeDigests {
		if err := recomputeDigests(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var out *outcome
	if w.Daemon {
		out, err = benchDaemon(ctx, cfg)
	} else {
		out, err = benchInProcess(ctx, w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// benchInProcess measures sweep-baselines or mtat-sweep.
func benchInProcess(ctx context.Context, w workload, cfg config) (*outcome, error) {
	all, err := loadDigests(cfg.digests)
	if err != nil {
		return nil, err
	}
	digests := all[w.Name]
	defs := cycleCells(w, cfg.seed)
	setups := make([]float64, inProcessSetupReps)
	for i := range setups {
		start := time.Now()
		for k := 0; k < inProcessSetupBatch; k++ {
			if err := compileCycle(defs); err != nil {
				return nil, err
			}
		}
		setups[i] = time.Since(start).Seconds() / inProcessSetupBatch
	}
	out := &outcome{}
	untraced := runInProcess(ctx, w, cfg, digests, nil)
	out.cells = untraced.recs
	var e2e metricSet
	inProcessE2E(&e2e, untraced)
	if !cfg.trace {
		rss, err := vmHWMMiB(0)
		if err != nil {
			return nil, err
		}
		out.metrics = e2e
		out.metrics.set("setup_s", median(setups), "s")
		out.metrics.note("setup_s: median of %d samples of %d set-ups; quartiles %.4g %.4g", len(setups), inProcessSetupBatch, quantile(setups, 0.25), quantile(setups, 0.75))
		out.metrics.set("peak_rss_mib", rss, "MiB")
	} else {
		tr := &tracer{}
		traced := runInProcess(ctx, w, cfg, digests, tr)
		out.cells = append(out.cells, traced.recs...)
		var te2e metricSet
		inProcessE2E(&te2e, traced)
		simLayers(&out.metrics, traced.recs)
		serverLayers(&out.metrics, daemonPass{})
		overhead(&out.metrics, e2e, te2e)
		out.costs = costTable(traced.recs)
		if err := tr.write(resultPath(cfg, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	for _, c := range out.cells {
		out.attempted++
		if !c.ok() {
			out.failed++
		}
	}
	out.metrics.set("fail_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return out, nil
}

// benchDaemon measures mtatd-short: set-up is mtatd spawn → first Ready,
// repeated daemonSetupReps times; the last daemon serves the window.
func benchDaemon(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{mtatdArgs: daemonArgs(cfg.workers)}
	dataRoot, err := os.MkdirTemp(cfg.out, "mtatd-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	logFile, err := os.Create(resultPath(cfg, "mtatd.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	spawn := func(i int) (*daemon, float64, error) {
		return startDaemon(ctx, cfg.mtatd, out.mtatdArgs, filepath.Join(dataRoot, fmt.Sprint(i)), logFile)
	}
	measure := func(d *daemon, first int, tr *tracer) (daemonPass, error) {
		p, err := runDaemonLoop(ctx, d, cfg, first, tr)
		if stopErr := d.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stop mtatd: %w", stopErr)
		}
		if err != nil {
			return p, err
		}
		checkTwins(ctx, p.runs, cfg.workers, tr)
		return p, nil
	}

	var setups []float64
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		dd, s, err := spawn(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < daemonSetupReps-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("stop mtatd: %w", err)
			}
			continue
		}
		d = dd
	}
	untraced, err := measure(d, 0, nil)
	if err != nil {
		return nil, err
	}
	out.runs = untraced.runs
	var e2e metricSet
	daemonE2E(&e2e, untraced)
	if !cfg.trace {
		out.metrics = e2e
		out.metrics.set("setup_s", median(setups), "s")
		out.metrics.note("setup_s: median of %d set-ups", len(setups))
		out.metrics.set("peak_rss_mib", untraced.rssMiB, "MiB")
	} else {
		d, _, err := spawn(daemonSetupReps)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		traced, err := measure(d, len(untraced.runs), tr)
		if err != nil {
			return nil, err
		}
		out.runs = append(out.runs, traced.runs...)
		var te2e metricSet
		daemonE2E(&te2e, traced)
		var twins []*cellRecord
		for _, r := range traced.runs {
			if r.Twin != nil {
				twins = append(twins, r.Twin)
			}
		}
		simLayers(&out.metrics, twins)
		serverLayers(&out.metrics, traced)
		overhead(&out.metrics, e2e, te2e)
		out.costs = costTable(twins)
		if err := tr.write(resultPath(cfg, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	for _, r := range out.runs {
		out.attempted++
		if r.Check != checkOK {
			out.failed++
		}
	}
	out.metrics.set("fail_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return out, nil
}

// overhead reports the traced window's throughput next to the untraced
// one's and their relative difference.
func overhead(m *metricSet, untraced, traced metricSet) {
	for _, name := range []string{"cells_per_min", "sim_ticks_per_s"} {
		u, t := untraced.values[name], traced.values[name]
		m.set("trace.untraced."+name, u.Value, u.Unit)
		m.set("trace.traced."+name, t.Value, t.Unit)
	}
	u, t := untraced.values["cells_per_min"].Value, traced.values["cells_per_min"].Value
	m.set("trace.overhead_frac", ratio(u-t, u), "ratio")
}

// resultPath names a results file of this invocation.
func resultPath(cfg config, suffix string) string {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.%s", cfg.workload, cfg.seed, trace, suffix))
}

// envStamp records where and how the numbers were taken.
func envStamp(cfg config, mtatdArgs []string) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"git_commit": commit,
		"mtatd_args": mtatdArgs,
		"workers":    cfg.workers,
		"seconds":    cfg.window.Seconds(),
		"seed":       cfg.seed,
		"pinned":     cfg.seed == defaultSeed,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// report prints every cell's verdict and fingerprint, the metric table,
// writes the results file, and prints the result JSON as the last line.
func report(cfg config, out *outcome) error {
	for _, c := range out.cells {
		fmt.Printf("cell %-32s round %-2d %-9s fp %s  %.3fs\n", c.Label, c.Round, c.Check, shortFP(c.Fingerprint), c.CellS)
	}
	for _, r := range out.runs {
		fmt.Printf("run  %-8s %-6s seed %-8d %-9s latency %.4fs fp %s\n", r.ID, r.Spec.Policy, r.Spec.Seed, r.Check, r.LatencyS, shortFP(r.Fingerprint))
	}
	for _, n := range out.metrics.names {
		v := out.metrics.values[n]
		fmt.Printf("%-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	for _, n := range out.metrics.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("attempted %d failed %d (fail_frac %.4g)\n", out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))

	var mtatdArgs []string
	if out.mtatdArgs != nil {
		mtatdArgs = append(out.mtatdArgs, "-data-dir", "<tmp>")
	}
	file := map[string]any{
		"env":       envStamp(cfg, mtatdArgs),
		"workload":  cfg.workload,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics.values,
		"notes":     out.metrics.notes,
		"cells":     out.cells,
		"runs":      out.runs,
		"costs":     out.costs,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(cfg, "json"), data, 0o644); err != nil {
		return err
	}

	// The result line carries exactly the metrics of this mode.
	want := endToEndNames
	if cfg.trace {
		want = perLayerNames
	}
	metrics := map[string]metric{}
	var missing []string
	for _, n := range want {
		v, ok := out.metrics.values[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		metrics[n] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func shortFP(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}
