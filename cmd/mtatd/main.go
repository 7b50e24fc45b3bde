// Command mtatd is the scenario-as-a-service control plane: a long-lived
// daemon that accepts JSON run specs over a REST API, executes them on a
// bounded worker pool, and retains per-run results and traces for
// inspection. cmd/mtatctl is the matching client.
//
// Usage:
//
//	mtatd                         # listen on 127.0.0.1:7070
//	mtatd -addr :0                # pick a free port (printed on stdout)
//	mtatd -workers 4 -queue 128
//
// SIGINT/SIGTERM triggers a graceful shutdown: the daemon stops accepting
// submissions and drains queued and running work for -drain, then cancels
// whatever is left.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func main() { daemon.Main("mtatd", start) }

// start parses the flags and builds the run manager and its API.
func start() (*daemon.Process, error) {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (use :0 for a free port)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueCap = flag.Int("queue", server.DefaultQueueCap, "submission queue capacity")
		maxRuns  = flag.Int("max-runs", server.DefaultMaxRuns, "retained finished runs before eviction")
		traceCap = flag.Int("run-trace-cap", server.DefaultRunTraceCapacity, "per-run trace ring capacity (events)")
		episodes = flag.Int("episodes", 0, "default MTAT in-process training episodes for specs that omit it")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		dataDir  = flag.String("data-dir", "", "journal directory for crash-safe run recovery (empty = in-memory only)")
		fsync    = flag.Bool("fsync", false, "fsync the journal after every append (with -data-dir)")
		pprof    = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
		tenants  = flag.String("tenants", "", "tenant config file (JSON): bearer-token auth, quotas, fair-share weights; empty = single anonymous tenant, unlimited")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	tel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatd"})
	reg, err := daemon.Setup(*logLevel, *logFmt, *tenants, tel)
	if err != nil {
		return nil, err
	}
	mgr, err := server.NewManager(server.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxRuns:          *maxRuns,
		RunTraceCapacity: *traceCap,
		DefaultEpisodes:  *episodes,
		Telemetry:        tel,
		DataDir:          *dataDir,
		Fsync:            *fsync,
		Tenants:          reg,
		Logf:             daemon.Slogf,
	})
	if err != nil {
		return nil, fmt.Errorf("-data-dir: %w", err)
	}
	daemon.ReloadTenantsOnHUP(*tenants, mgr)
	if st := mgr.Stats(); st.RecoveredRuns > 0 {
		slog.Info("recovered unfinished runs from journal",
			"runs", st.RecoveredRuns, "data_dir", *dataDir)
	}

	return &daemon.Process{
		Addr:    *addr,
		Handler: server.NewHandlerWith(mgr, tel, server.HandlerConfig{Pprof: *pprof}),
		ListenLine: func(bound string) string {
			return fmt.Sprintf("mtatd: listening on http://%s (workers %d, queue %d)",
				bound, mgr.Workers(), *queueCap)
		},
		Drain:    *drain,
		Shutdown: mgr.Shutdown,
	}, nil
}
