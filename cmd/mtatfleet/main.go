// Command mtatfleet is the fleet scheduler: a daemon that shards
// parameter sweeps across many mtatd nodes. It tracks node health,
// places each sweep cell on the least-loaded healthy node, retries
// across nodes when one dies mid-run, and aggregates per-cell summaries
// for JSON/JSONL/CSV export. cmd/mtatctl's sweep subcommands are the
// matching client.
//
// Usage:
//
//	mtatfleet -nodes 127.0.0.1:7070,127.0.0.1:7071
//	mtatfleet -addr :0 -nodes 127.0.0.1:7070     # free port, printed on stdout
//	mtatfleet -strategy round-robin -parallel 16
//
// Nodes can also be registered at runtime via POST /api/v1/nodes (see
// mtatctl sweep nodes -add). SIGINT/SIGTERM drains running sweeps for
// -drain, then cancels whatever is left.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func main() { daemon.Main("mtatfleet", start) }

// start parses the flags, builds the fleet, registers the -nodes pool
// and resumes journaled sweeps.
func start() (*daemon.Process, error) {
	var (
		addr         = flag.String("addr", "127.0.0.1:7171", "listen address (use :0 for a free port)")
		nodes        = flag.String("nodes", "", "comma-separated mtatd addresses to register at startup")
		strategyName = flag.String("strategy", "", "placement strategy: "+strings.Join(cluster.StrategyNames(), ", "))
		parallel     = flag.Int("parallel", cluster.DefaultSweepParallelism, "concurrently dispatched cells per sweep")
		inflight     = flag.Int("inflight", 0, "in-flight runs per node (0 = each node's worker count)")
		retries      = flag.Int("retries", cluster.DefaultMaxNodeAttempts, "distinct nodes to try per cell before giving up")
		probe        = flag.Duration("probe", cluster.DefaultProbeInterval, "node health-probe interval")
		probeTimeout = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "per-probe timeout")
		markdown     = flag.Int("markdown-after", cluster.DefaultMarkdownAfter, "consecutive probe failures before a node is marked down")
		maxSweeps    = flag.Int("max-sweeps", cluster.DefaultMaxSweeps, "retained finished sweeps before eviction")
		drain        = flag.Duration("drain", 60*time.Second, "graceful-shutdown drain deadline")
		dataDir      = flag.String("data-dir", "", "journal directory for crash-safe sweep recovery (empty = in-memory only)")
		fsync        = flag.Bool("fsync", false, "fsync the journal after every append (with -data-dir)")
		pprof        = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
		slowFactor   = flag.Float64("slow-cell-factor", cluster.DefaultSlowCellFactor,
			"flag cells slower than this multiple of the sweep's median cell wall time")
		tenants   = flag.String("tenants", "", "tenant config file (JSON): bearer-token auth, quotas; empty = single anonymous tenant, unlimited")
		nodeToken = flag.String("node-token", "", "bearer token presented to nodes (list it as an admin tenant on the nodes for per-tenant attribution)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	tel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatfleet"})
	treg, err := daemon.Setup(*logLevel, *logFmt, *tenants, tel)
	if err != nil {
		return nil, err
	}
	strategy, err := cluster.StrategyByName(*strategyName)
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Registry: cluster.RegistryConfig{
			ProbeInterval:   *probe,
			ProbeTimeout:    *probeTimeout,
			MarkdownAfter:   *markdown,
			InflightPerNode: *inflight,
		},
		Dispatcher: cluster.DispatcherConfig{
			Strategy:        strategy,
			MaxNodeAttempts: *retries,
		},
		SweepParallelism: *parallel,
		MaxSweeps:        *maxSweeps,
		SlowCellFactor:   *slowFactor,
		Telemetry:        tel,
		DataDir:          *dataDir,
		Fsync:            *fsync,
		Tenants:          treg,
		NodeToken:        *nodeToken,
		Logf:             daemon.Slogf,
	})
	if err != nil {
		return nil, fmt.Errorf("-data-dir: %w", err)
	}
	daemon.ReloadTenantsOnHUP(*tenants, fleet)

	for _, nodeAddr := range splitList(*nodes) {
		info, err := fleet.Reg.Add(nodeAddr, 1)
		if err != nil {
			return nil, fmt.Errorf("-nodes %s: %w", nodeAddr, err)
		}
		slog.Info("registered node", "name", info.Name, "addr", info.Addr, "healthy", info.Healthy)
	}

	// Resume journaled unfinished sweeps only after the node pool is
	// registered — dispatching against an empty registry fails every
	// cell immediately.
	for _, st := range fleet.Resume() {
		slog.Info("resumed sweep from journal", "sweep", st.ID, "name", st.Name,
			"cells_left", st.Cells-st.Done-st.Failed, "cells", st.Cells)
	}

	return &daemon.Process{
		Addr:    *addr,
		Handler: cluster.NewHandlerWith(fleet, tel, cluster.HandlerConfig{Pprof: *pprof}),
		ListenLine: func(bound string) string {
			return fmt.Sprintf("mtatfleet: listening on http://%s (%d nodes, parallel %d)",
				bound, len(fleet.Reg.Nodes()), *parallel)
		},
		Drain:    *drain,
		Shutdown: fleet.Shutdown,
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
