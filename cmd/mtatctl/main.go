// Command mtatctl drives a running mtatd: it submits scenario run specs,
// polls status, streams per-run traces, and cancels runs. The sweep
// subcommands drive a mtatfleet scheduler instead, sharding parameter
// sweeps across many mtatd nodes.
//
// Usage:
//
//	mtatctl [-addr host:port] <command> [flags] [args]
//
//	mtatctl submit -lc redis -policy memtis -scale 64        # print run ID
//	mtatctl submit -f spec.json -wait                        # spec file, block until done
//	mtatctl status                                           # list runs
//	mtatctl status r000001                                   # one run's JSON
//	mtatctl info                                             # daemon stats (queue, recovered runs)
//	mtatctl wait -timeout 2m r000001                         # block until terminal
//	mtatctl logs r000001                                     # stream trace JSONL
//	mtatctl watch run r000001                                # live SSE view (stats, flight events)
//	mtatctl watch sweep s000001                              # live sweep progress with ETA
//	mtatctl watch experiment -f spec.json                    # live experiment arm progress
//	mtatctl cancel r000001
//
//	mtatctl -token $TOKEN tenants list                       # per-tenant usage table
//	mtatctl -token $TOKEN tenants usage                      # full usage JSON
//	mtatctl -token $ADMIN tenants apply -f tenants.json      # hot-reload the tenant config
//
//	mtatctl sweep submit -f sweep.json -wait                 # shard a sweep across the fleet
//	mtatctl sweep run -f sweep.json -workers 8               # no fleet needed: parallel in-process cells
//	mtatctl sweep status [s000001]                           # list sweeps / one sweep's JSON
//	mtatctl sweep info                                       # fleet stats (nodes, recovered cells)
//	mtatctl sweep wait -timeout 10m s000001
//	mtatctl sweep results -format csv s000001                # export settled cell summaries
//	mtatctl sweep nodes                                      # fleet node pool with health
//	mtatctl sweep nodes -add 127.0.0.1:7070                  # register a mtatd node
//	mtatctl sweep cancel s000001
//
//	mtatctl experiment run -f hypotheses/mtat-vs-vtmm.json   # run to a verdict (markdown + JSON report)
//	mtatctl experiment run -local -f spec.json               # no daemon needed: in-process runs
//	mtatctl experiment status -f spec.json                   # journaled progress (settled/in-flight cells)
//	mtatctl experiment report -f spec.json -o reports/       # re-render the verdict from the journal
//
//	mtatctl trace r000001                                    # render a run's distributed trace tree
//	mtatctl trace -fleet 127.0.0.1:7171 s000001              # a sweep's tree, merged across daemons
//	mtatctl metrics -format prom                             # scrape a daemon's /metrics
//	mtatctl profile cpu -seconds 10                          # fetch a pprof profile (daemon needs -pprof)
//	mtatctl flight r000001                                   # dump a run's flight recorder JSON
//	mtatctl flight -follow r000001                           # poll new flight events via ?after cursor
//
// The mtatd address comes from -addr, then $MTATD_ADDR, then
// 127.0.0.1:7070. Sweep subcommands talk to the fleet daemon instead:
// -addr (when set explicitly), then $MTATFLEET_ADDR, then
// 127.0.0.1:7171. Against daemons running with -tenants, the bearer
// token comes from -token, then $MTAT_TOKEN.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mtatctl:", err)
		os.Exit(1)
	}
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprint(os.Stderr, "usage: mtatctl [-addr host:port] <command> [flags] [args]\n\n"+
			"commands:\n"+
			"  submit   submit a run spec (-f file, or -lc/-bes/-policy/... flags)\n"+
			"  status   list runs, or show one run's status JSON\n"+
			"  info     show the daemon's stats JSON (queue depth, recovered runs, ...)\n"+
			"  wait     block until a run reaches a terminal state\n"+
			"  watch    follow a run, sweep, or experiment live over SSE (run|sweep|experiment)\n"+
			"  logs     stream a run's trace as JSONL\n"+
			"  cancel   cancel a queued or running run\n"+
			"  tenants  list tenant usage or hot-reload the tenant config (list|usage|apply)\n"+
			"  sweep    drive a mtatfleet scheduler (submit|run|status|wait|results|nodes|cancel)\n"+
			"  experiment  run a hypothesis experiment to a statistical verdict (run|status|report)\n"+
			"  trace    render a distributed trace tree (run ID, sweep ID, or 32-hex trace ID)\n"+
			"  metrics  scrape a daemon's /metrics (-node URL, -format json|prom)\n"+
			"  profile  fetch a pprof profile from a daemon started with -pprof (cpu|heap|allocs)\n"+
			"  flight   dump a run's flight-recorder ring (recent core events) as JSON\n\n"+
			"flags:\n")
		fs.PrintDefaults()
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mtatctl", flag.ContinueOnError)
	addr := fs.String("addr", defaultAddr(), "mtatd address (host:port or URL; also $MTATD_ADDR)")
	token := fs.String("token", defaultToken(), "bearer token for daemons running with -tenants (also $MTAT_TOKEN)")
	fs.Usage = usage(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	ctx := context.Background()
	if rest[0] == "sweep" {
		// The sweep family talks to mtatfleet, not mtatd, so the bare
		// default addr must not leak through — only an explicit -addr wins.
		addrSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "addr" {
				addrSet = true
			}
		})
		fleetAddr := *addr
		if !addrSet {
			fleetAddr = defaultFleetAddr()
		}
		fc := cluster.NewClient(fleetAddr)
		fc.Token = *token
		return cmdSweep(ctx, fc, rest[1:])
	}
	c := server.NewClient(*addr)
	c.Token = *token
	switch rest[0] {
	case "submit":
		return cmdSubmit(ctx, c, rest[1:])
	case "status":
		return cmdStatus(ctx, c, rest[1:])
	case "info":
		return cmdInfo(ctx, c)
	case "wait":
		return cmdWait(ctx, c, rest[1:])
	case "watch":
		return cmdWatch(ctx, c, rest[1:])
	case "logs":
		return cmdLogs(ctx, c, rest[1:])
	case "cancel":
		return cmdCancel(ctx, c, rest[1:])
	case "tenants":
		return cmdTenants(ctx, c, rest[1:])
	case "experiment":
		return cmdExperiment(ctx, c, rest[1:])
	case "trace":
		return cmdTrace(ctx, c, rest[1:])
	case "metrics":
		return cmdMetrics(ctx, c, rest[1:])
	case "profile":
		return cmdProfile(ctx, c, rest[1:])
	case "flight":
		return cmdFlight(ctx, c, rest[1:])
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

func defaultAddr() string {
	if a := os.Getenv("MTATD_ADDR"); a != "" {
		return a
	}
	return "127.0.0.1:7070"
}

func defaultFleetAddr() string {
	if a := os.Getenv("MTATFLEET_ADDR"); a != "" {
		return a
	}
	return "127.0.0.1:7171"
}

func defaultToken() string {
	return os.Getenv("MTAT_TOKEN")
}

func cmdSubmit(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl submit", flag.ContinueOnError)
	var (
		specPath = fs.String("f", "", `run spec JSON file ("-" for stdin; overrides workload flags)`)
		lcName   = fs.String("lc", "", "latency-critical workload")
		beNames  = fs.String("bes", "", "comma-separated best-effort workloads (empty = all four)")
		polName  = fs.String("policy", "memtis", "management policy")
		loadSpec = fs.Float64("load", 0, "constant load fraction; 0 uses the Figure 7 ramp")
		duration = fs.Float64("duration", 0, "run length in seconds (0 = load pattern length)")
		scale    = fs.Int("scale", 1, "memory scale divisor")
		seed     = fs.Int64("seed", 1, "random seed")
		episodes = fs.Int("episodes", 0, "MTAT in-process training episodes (0 = server default)")
		wait     = fs.Bool("wait", false, "block until the run finishes and report the outcome")
		timeout  = fs.Duration("timeout", 0, "give up waiting after this long (0 = forever; implies -wait)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec sim.RunSpec
	if *specPath != "" {
		data, err := readSpecFile(*specPath)
		if err != nil {
			return err
		}
		spec, err = sim.ParseRunSpec(data)
		if err != nil {
			return err
		}
	} else {
		spec = sim.RunSpec{
			LC:              *lcName,
			BEs:             splitList(*beNames),
			Policy:          *polName,
			Scale:           *scale,
			Seed:            *seed,
			DurationSeconds: *duration,
			Episodes:        *episodes,
		}
		if *loadSpec > 0 {
			d := *duration
			if d == 0 {
				d = 120
			}
			spec.Load = &sim.LoadSpec{Kind: "constant", Frac: *loadSpec, DurationSeconds: d}
		}
	}
	// Open a fresh distributed trace for the submission: the traceparent
	// rides the HTTP request, so the daemon's server span, journal append,
	// and run.execute all hang under this trace ID.
	ctx, trace := telemetry.NewTraceContext(ctx)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	// The bare run ID on stdout is the scripting contract; context goes
	// to stderr.
	fmt.Fprintf(os.Stderr, "submitted %s (%s, policy %s)\n", st.ID, st.State, spec.PolicyName())
	fmt.Fprintf(os.Stderr, "trace %s\n", trace)
	fmt.Println(st.ID)
	if !*wait && *timeout == 0 {
		return nil
	}
	return waitAndReport(ctx, c, st.ID, *timeout, 0)
}

func cmdStatus(ctx context.Context, c *server.Client, args []string) error {
	if len(args) == 0 {
		runs, err := c.Runs(ctx)
		if err != nil {
			return err
		}
		if len(runs) == 0 {
			fmt.Println("no runs")
			return nil
		}
		fmt.Printf("%-10s %-10s %-12s %-8s %s\n", "ID", "STATE", "POLICY", "LC", "SUBMITTED")
		for _, st := range runs {
			fmt.Printf("%-10s %-10s %-12s %-8s %s\n",
				st.ID, st.State, st.Spec.PolicyName(), orDash(st.Spec.LC),
				st.SubmittedAt.Format(time.RFC3339))
		}
		return nil
	}
	st, err := c.Run(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

// cmdInfo prints the daemon's stats — the quick way to confirm a
// restarted mtatd recovered its journaled backlog (recovered_runs).
func cmdInfo(ctx context.Context, c *server.Client) error {
	st, err := c.Status(ctx)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdWait(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl wait", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = forever)")
	poll := fs.Duration("poll", daemon.DefaultPollInterval, "status poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("wait: exactly one run ID required")
	}
	return waitAndReport(ctx, c, fs.Arg(0), *timeout, *poll)
}

// waitAndReport blocks until the run is terminal, prints the outcome, and
// fails unless the run completed successfully.
func waitAndReport(ctx context.Context, c *server.Client, id string, timeout, poll time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st, err := c.Wait(ctx, id, poll)
	if err != nil {
		return fmt.Errorf("wait %s: %w", id, err)
	}
	if st.State != server.StateDone {
		return fmt.Errorf("run %s %s: %s", st.ID, st.State, orDash(st.Error))
	}
	fmt.Fprintf(os.Stderr, "run %s done\n", st.ID)
	return printJSON(st)
}

func cmdLogs(ctx context.Context, c *server.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("logs: exactly one run ID required")
	}
	return c.Events(ctx, args[0], os.Stdout)
}

func cmdCancel(ctx context.Context, c *server.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel: exactly one run ID required")
	}
	st, err := c.Cancel(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("run %s %s\n", st.ID, st.State)
	return nil
}

func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
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
