package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// daemon is one mtatd child process and a client with its own
// connection pool.
type daemon struct {
	cmd       *exec.Cmd
	client    *server.Client
	transport *http.Transport
	dataDir   string
	exited    chan error
}

// daemonArgs are the mtatd flags the benchmark uses (besides -data-dir):
// journal on, no fsync, at most nproc workers. -max-runs bounds the
// retained results, which hold each run's full time series; at the
// default of 256 the daemon peaks near 1.5 GiB on this workload.
func daemonArgs(workers int) []string {
	return []string{"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers),
		"-max-runs", "64", "-log-level", "warn", "-drain", "5s"}
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

// lineWatcher is the child's stdout: it hands the first line to ch and
// keeps the rest for the log.
type lineWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
	ch   chan string
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if i := bytes.IndexByte(w.buf.Bytes(), '\n'); i >= 0 {
			w.sent = true
			w.ch <- string(w.buf.Bytes()[:i])
		}
	}
	return len(p), nil
}

// startDaemon spawns mtatd on dataDir and returns once its first Ready
// succeeds, with the time that took (the workload's set-up time).
func startDaemon(ctx context.Context, bin string, args []string, dataDir string, logFile *os.File) (*daemon, float64, error) {
	start := time.Now()
	cmd := exec.Command(bin, append(args, "-data-dir", dataDir)...)
	out := &lineWatcher{ch: make(chan string, 1)}
	cmd.Stdout = out
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start mtatd: %w", err)
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, err
	}
	var line string
	select {
	case line = <-out.ch:
	case err := <-d.exited:
		d.exited <- err
		return fail(fmt.Errorf("mtatd exited before listening: %v", err))
	case <-time.After(30 * time.Second):
		return fail(errors.New("mtatd did not print its listen line within 30s"))
	}
	m := listenRE.FindStringSubmatch(line)
	if m == nil {
		return fail(fmt.Errorf("unexpected mtatd listen line %q", line))
	}
	d.transport = http.DefaultTransport.(*http.Transport).Clone()
	d.client = server.NewClient(m[1])
	d.client.HTTPClient = &http.Client{Transport: d.transport}
	for {
		err := d.client.Ready(ctx)
		if err == nil {
			break
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("mtatd not ready after 30s: %w", err))
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start).Seconds(), nil
}

// stop sends SIGTERM and waits for the child to exit (SIGKILL after 10s).
// It first closes the client's idle connections: the daemon gives HTTP
// shutdown 5s, and net/http waits that long for a connection that was
// dialed but never carried a request. mtatd installs its SIGTERM handler
// just after it starts serving, so a daemon stopped right after its
// first Ready may die of the signal instead of draining; either way it
// has stopped, which is all set-up needs.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			if ws, ok := exitErr.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.exited
		d.exited <- err
		return fmt.Errorf("mtatd ignored SIGTERM: %v", err)
	}
}

// runRecord is one mtatd-short run as the client saw it.
type runRecord struct {
	Index int         `json:"index"`
	Spec  sim.RunSpec `json:"spec"`
	ID    string      `json:"id,omitempty"`
	Check string      `json:"check"`
	// Fingerprint is the in-process twin's result fingerprint.
	Fingerprint string           `json:"fingerprint,omitempty"`
	SubmitS     float64          `json:"submit_s"`
	LatencyS    float64          `json:"latency_s"`
	Status      server.RunStatus `json:"status"`
	Observed    time.Time        `json:"observed"`
	Rejected    bool             `json:"rejected,omitempty"`
	Twin        *cellRecord      `json:"twin,omitempty"`
}

// execS is the server-side cell time, StartedAt → FinishedAt.
func (r *runRecord) execS() float64 {
	return r.Status.FinishedAt.Sub(*r.Status.StartedAt).Seconds()
}

// runTimeout bounds one mtatd-short run from submit to observed end.
const runTimeout = 30 * time.Second

// doRun submits one spec and waits on the run's SSE stream until the
// client observes a terminal state. The status fetch after subscribing
// closes the race with a run that finished before the stream opened.
func doRun(ctx context.Context, cl *server.Client, idx int, spec sim.RunSpec, tr *tracer) *runRecord {
	// A 100-tick cell finishes in well under a second; the deadline only
	// keeps a lost notification from hanging the benchmark.
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rec := &runRecord{Index: idx, Spec: spec}
	t0 := time.Now()
	st, err := cl.Submit(ctx, spec)
	t1 := time.Now()
	rec.SubmitS = t1.Sub(t0).Seconds()
	if err != nil {
		var apiErr *server.APIError
		rec.Rejected = errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests
		rec.Check = "error: submit: " + err.Error()
		return rec
	}
	rec.ID = st.ID
	final, err := observe(ctx, cl, st.ID)
	t2 := time.Now()
	rec.LatencyS = t2.Sub(t0).Seconds()
	rec.Observed = t2
	rec.Status = final
	switch {
	case err != nil:
		rec.Check = "error: observe: " + err.Error()
	case final.State != server.StateDone:
		rec.Check = fmt.Sprintf("error: run ended %s: %s", final.State, final.Error)
	case final.Result == nil || final.Result.Core == nil || final.StartedAt == nil || final.FinishedAt == nil:
		rec.Check = "error: done run without result or timestamps"
	}
	if tr != nil {
		trace := "run/" + st.ID
		root := tr.add(trace, 0, "client.run", t0, t2, nil)
		tr.add(trace, root, "client.submit", t0, t1, nil)
		tr.add(trace, root, "client.observe", t1, t2, nil)
		if rec.Check == "" {
			tr.add(trace, root, "server.queue", final.SubmittedAt, *final.StartedAt, nil)
			tr.add(trace, root, "server.execute", *final.StartedAt, *final.FinishedAt, map[string]int64{
				"core_wall_ns": int64(final.Result.Core.WallSeconds * 1e9)})
		}
	}
	return rec
}

// observe returns the run's status once it is terminal.
func observe(ctx context.Context, cl *server.Client, id string) (server.RunStatus, error) {
	stream, err := cl.StreamEvents(ctx, id, "")
	if err != nil {
		return server.RunStatus{}, err
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil { // stream.hello: subscribed
		return server.RunStatus{}, err
	}
	st, err := cl.Run(ctx, id)
	if err != nil || st.State.Terminal() {
		return st, err
	}
	for {
		ev, err := stream.Next()
		if err != nil {
			return server.RunStatus{}, err
		}
		if ev.Event != telemetry.EvBusRunState {
			continue
		}
		var be struct {
			Data server.RunStatus `json:"data"`
		}
		if err := json.Unmarshal([]byte(ev.Data), &be); err != nil {
			return server.RunStatus{}, fmt.Errorf("decode run.state: %w", err)
		}
		if be.Data.State.Terminal() {
			return be.Data, nil
		}
	}
}

// daemonPass is one measured window of the mtatd-short closed loop.
type daemonPass struct {
	runs         []*runRecord
	wall         float64
	rssMiB       float64
	journalBytes int64
}

// runDaemonLoop drives d with cfg.workers closed-loop clients for the
// window: each submits its next cell only after observing the previous
// one finish.
func runDaemonLoop(ctx context.Context, d *daemon, cfg config, first int, tr *tracer) (daemonPass, error) {
	var (
		mu   sync.Mutex
		next = first
		p    daemonPass
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.window && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				rec := doRun(ctx, d.client, i, daemonSpec(cfg.seed, i), tr)
				mu.Lock()
				p.runs = append(p.runs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	sort.Slice(p.runs, func(a, b int) bool { return p.runs[a].Index < p.runs[b].Index })
	var err error
	if p.rssMiB, err = vmHWMMiB(d.cmd.Process.Pid); err != nil {
		return p, err
	}
	err = filepath.WalkDir(d.dataDir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			p.journalBytes += info.Size()
		}
		return err
	})
	return p, err
}

// checkTwins runs every done run's spec in-process through the cell
// pool (traced when tr is set) and compares the daemon's deterministic
// summary with the in-process result.
func checkTwins(ctx context.Context, runs []*runRecord, workers int, tr *tracer) {
	var todo []*runRecord
	for _, r := range runs {
		if r.Check == "" {
			todo = append(todo, r)
		}
	}
	defs := make([]cellDef, len(todo))
	for i, r := range todo {
		defs[i] = cellDef{Label: "twin/" + r.ID, Spec: r.Spec}
	}
	twins, results := runPool(ctx, defs, workers, tr, nil, false)
	for i, r := range todo {
		r.Twin = twins[i]
	}
	for i, r := range todo {
		r.Fingerprint = twins[i].Fingerprint
		if twins[i].Check != checkUnchecked {
			r.Check = "twin " + twins[i].Check
		} else if diff := diffSummary(r.Status.Result, results[i]); diff != "" {
			r.Check = "MISMATCH " + diff
		} else {
			r.Check = checkOK
		}
	}
}

// diffSummary compares the deterministic fields of a daemon RunResult
// with an in-process sim.Result ("" when equal). Floats must be bit-equal.
func diffSummary(got *server.RunResult, want *sim.Result) string {
	fl := []struct {
		name string
		a, b float64
	}{
		{"lc_violation_rate", got.LCViolationRate, want.LCViolationRate},
		{"lc_max_p99", got.LCMaxP99, want.LCMaxP99},
		{"lc_mean_p99", got.LCMeanP99, want.LCMeanP99},
		{"be_fairness", got.BEFairness, want.BEFairness},
		{"be_throughput", got.BEThroughput, want.BEThroughput},
	}
	if len(got.BEs) != len(want.BEs) {
		return fmt.Sprintf("bes: %d vs %d", len(got.BEs), len(want.BEs))
	}
	for i, be := range got.BEs {
		w := want.BEs[i]
		if be.Name != w.Name {
			return fmt.Sprintf("be[%d] name %q vs %q", i, be.Name, w.Name)
		}
		fl = append(fl, []struct {
			name string
			a, b float64
		}{
			{be.Name + ".np", be.NP, w.NP},
			{be.Name + ".throughput", be.Throughput, w.Throughput},
			{be.Name + ".avg_fmem_pages", be.AvgFMemPages, w.AvgFMemPages},
		}...)
	}
	for _, f := range fl {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b)
		}
	}
	gc, wc := got.Core, want.Core
	switch {
	case got.Policy != want.Policy:
		return fmt.Sprintf("policy %q vs %q", got.Policy, want.Policy)
	case got.SLOMet != want.SLOMet:
		return "slo_met differs"
	case got.MigratedBytes != want.MigratedBytes:
		return fmt.Sprintf("migrated_bytes %d vs %d", got.MigratedBytes, want.MigratedBytes)
	case got.Ticks != want.Ticks:
		return fmt.Sprintf("ticks %d vs %d", got.Ticks, want.Ticks)
	case gc.PagesPromoted != wc.PagesPromoted || gc.PagesDemoted != wc.PagesDemoted ||
		gc.HotnessAgings != wc.HotnessAgings || gc.PEBSSamples != wc.PEBSSamples ||
		gc.QueueTicks != wc.QueueTicks || gc.QueueDraws != wc.QueueDraws:
		return "core counters differ"
	}
	return ""
}

// daemonE2E computes the end-to-end metrics of one closed-loop pass.
// A cell here is a run that reached done and matched its twin.
func daemonE2E(m *metricSet, p daemonPass) {
	var lat, exec []float64
	var ticks int64
	var coreWall float64
	for _, r := range p.runs {
		if r.Check != checkOK {
			continue
		}
		lat = append(lat, r.LatencyS)
		exec = append(exec, r.execS())
		ticks += r.Status.Result.Core.Ticks
		coreWall += r.Status.Result.Core.WallSeconds
	}
	n := float64(len(lat))
	m.set("cells_per_min", 60*n/p.wall, "cells/min")
	m.set("cell_s_p50", median(exec), "s")
	m.set("sim_ticks_per_s", ratio(float64(ticks), coreWall), "ticks/s")
	m.set("runs_per_s", n/p.wall, "runs/s")
	m.set("run_latency_s_p50", median(lat), "s")
	m.set("run_latency_s_p95", quantile(lat, 0.95), "s")
	m.note("%d checked runs in %.2fs of wall", len(lat), p.wall)
	m.noteLatency("run_latency_s", len(lat))
}

// serverLayers adds the per-layer metrics of the service path. The
// queue wait starts at admission, inside the submit call, so it overlaps
// server.submit_s; server.attributed_frac therefore sums only the three
// parts that do not overlap (submit, execute overhead, observe lag) and
// divides by the gap between latency and the simulation's own wall time.
func serverLayers(m *metricSet, p daemonPass) {
	var submit, wait, overhead, lag, gap []float64
	var attributed, gapSum float64
	rejected := 0
	for _, r := range p.runs {
		if r.Rejected {
			rejected++
		}
		if r.Check != checkOK {
			continue
		}
		st := r.Status
		coreWall := st.Result.Core.WallSeconds
		o := r.execS() - coreWall
		l := r.Observed.Sub(*st.FinishedAt).Seconds()
		g := r.LatencyS - coreWall
		submit = append(submit, r.SubmitS)
		wait = append(wait, st.StartedAt.Sub(st.SubmittedAt).Seconds())
		overhead = append(overhead, o)
		lag = append(lag, l)
		gap = append(gap, g)
		attributed += r.SubmitS + o + l
		gapSum += g
	}
	m.set("server.runs", float64(len(gap)), "count")
	m.set("server.submit_s_p50", median(submit), "s")
	m.set("server.submit_s_p95", quantile(submit, 0.95), "s")
	m.set("server.queue_wait_s_p50", median(wait), "s")
	m.set("server.queue_wait_s_p95", quantile(wait, 0.95), "s")
	m.set("server.exec_overhead_s_p50", median(overhead), "s")
	m.set("server.observe_lag_s_p50", median(lag), "s")
	m.set("server.gap_s_p50", median(gap), "s")
	m.set("server.attributed_frac", ratio(attributed, gapSum), "ratio")
	m.set("server.rejected", float64(rejected), "count")
	m.set("journal.bytes_per_run", ratio(float64(p.journalBytes), float64(len(p.runs))), "bytes")
	if len(submit) > 0 {
		m.noteLatency("server.submit_s", len(submit))
	}
}
