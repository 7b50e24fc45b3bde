package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// httpGrace is how long shutdown waits for in-flight requests before
// force-closing the remaining connections.
const httpGrace = 5 * time.Second

// Process is what a daemon's main hands to Main once its core is built.
type Process struct {
	// Addr is the listen address (-addr).
	Addr string
	// Handler serves the daemon's API.
	Handler http.Handler
	// ListenLine renders the line printed on stdout once Addr is bound —
	// the machine-readable contract scripts parse the address from.
	ListenLine func(addr string) string
	// Drain bounds Shutdown (-drain).
	Drain time.Duration
	// Shutdown stops the core: no new work, outstanding work drained
	// until ctx expires, then cancelled.
	Shutdown func(ctx context.Context) error
}

// Main runs a daemon process and exits it: 1, with the error on stderr
// prefixed by name, when start or serving fails; 0 after a clean
// shutdown. The SIGINT/SIGTERM handler is installed before start runs,
// so a signal at any point from then on — even one sent the moment the
// listen line appears — drains the daemon instead of killing it.
func Main(name string, start func() (*Process, error)) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, stop, start)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stop context.CancelFunc, start func() (*Process, error)) error {
	p, err := start()
	if err != nil {
		return err
	}
	srv, err := telemetry.Serve(p.Addr, p.Handler)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	fmt.Println(p.ListenLine(srv.Addr()))

	<-ctx.Done()
	stop() // a second signal kills the process outright

	slog.Info("shutting down", "drain", p.Drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), p.Drain)
	defer cancel()
	if err := p.Shutdown(drainCtx); err != nil {
		slog.Warn("drain deadline hit, outstanding work cancelled")
	}
	return shutdownHTTP(srv, httpGrace)
}

// shutdownHTTP gives in-flight requests grace to finish, then
// force-closes whatever is left. A connection that was dialed but never
// carried a request counts as active to net/http for 5s, so a client
// holding an unused keep-alive connection would otherwise turn a clean
// stop into a failed one.
func shutdownHTTP(srv *telemetry.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	slog.Warn("http shutdown deadline hit, closing remaining connections", "grace", grace.String())
	return srv.Close()
}

// Setup installs the structured slog default logger on stderr — the
// sink for the API middleware's request lines and the core's
// operational lines — and loads the -tenants file. An empty path
// returns a nil registry, which selects the permissive single-tenant
// one: daemons without the flag behave exactly as before multi-tenancy.
func Setup(level, format, tenantsPath string, tel *telemetry.Telemetry) (*tenant.Registry, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
	slog.SetDefault(slog.New(h))

	if tenantsPath == "" {
		return nil, nil
	}
	cfg, err := tenant.LoadFile(tenantsPath)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	reg, err := tenant.New(&cfg, tel)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	slog.Info("tenant config loaded", "path", tenantsPath, "tenants", reg.Count())
	return reg, nil
}

// Slogf adapts the structured default logger to the printf-style Logf
// hooks the cores expose.
func Slogf(format string, args ...any) {
	slog.Info(fmt.Sprintf(format, args...))
}

// ReloadTenantsOnHUP re-reads the -tenants file on every SIGHUP and
// hot-swaps svc's tenant set — the same path as POST
// /api/v1/config/tenants, minus the network — then tells svc when it is
// a TenantsReloader. A config that no longer parses or validates keeps
// the previous set: a bad edit must not lock every tenant out. An empty
// path installs nothing.
func ReloadTenantsOnHUP(path string, svc Service) {
	if path == "" {
		return
	}
	reg := svc.Tenants()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			cfg, err := tenant.LoadFile(path)
			if err == nil {
				err = reg.Reload(cfg)
			}
			if err != nil {
				slog.Error("tenant reload failed; keeping previous config", "path", path, "err", err)
				continue
			}
			if rl, ok := svc.(TenantsReloader); ok {
				rl.TenantsReloaded()
			}
			slog.Info("tenant config reloaded", "path", path,
				"tenants", reg.Count(), "generation", reg.Generation())
		}
	}()
}
