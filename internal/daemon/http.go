package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// MaxBodyBytes bounds a JSON request body (run and sweep specs, tenant
// configs).
const MaxBodyBytes = 1 << 20

// HandlerConfig tunes the optional surfaces of a daemon's HTTP API.
type HandlerConfig struct {
	// Pprof mounts the Go profiling endpoints under /debug/pprof/. The
	// daemons keep it off unless launched with -pprof; the NewHandler
	// shorthands turn it on for embedded/test use.
	Pprof bool
}

// Service is what the shared routes need from a daemon's core
// (server.Manager, cluster.Fleet).
type Service interface {
	// Ready is the readiness verdict, its reason served verbatim by
	// GET /readyz.
	Ready() (bool, string)
	// Tenants is the tenancy registry (never nil).
	Tenants() *tenant.Registry
	// Bus carries the daemon's live events to SSE subscribers.
	Bus() *telemetry.EventBus
	// SyncBusMetrics mirrors the bus accounting into the registry.
	SyncBusMetrics()
}

// TenantsReloader is implemented by services that must react to a
// tenant config reload, whether from POST /api/v1/config/tenants or
// SIGHUP. mtatd re-evaluates runs gated under the old MaxActive limits.
type TenantsReloader interface {
	TenantsReloaded()
}

// sharedIndex lists the routes Handler mounts, appended to each
// daemon's own index.
const sharedIndex = "GET    /api/v1/events  (SSE firehose)\n" +
	"GET    /api/v1/traces\n" +
	"GET    /api/v1/traces/{id}\n" +
	"GET    /api/v1/tenants\n" +
	"POST   /api/v1/config/tenants  (admin)\n" +
	"GET    /healthz\n" +
	"GET    /readyz\n" +
	"GET    /metrics  (?format=prom for Prometheus text)\n" +
	"GET    /trace\n" +
	"GET    /debug/pprof/  (with -pprof)\n"

// Handler completes a daemon's HTTP API. Next to the daemon's own
// routes already on mux it mounts:
//
//	GET    /api/v1/events          SSE firehose of every topic, tenant-scoped
//	GET    /api/v1/traces          retained distributed traces (summaries, NDJSON)
//	GET    /api/v1/traces/{id}     one trace's spans as JSONL
//	GET    /api/v1/tenants         per-tenant usage snapshots
//	POST   /api/v1/config/tenants  admin tenant-config hot reload
//	GET    /healthz                liveness probe
//	GET    /readyz                 readiness probe (svc.Ready)
//	GET    /metrics, /trace        tel's snapshots (nil serves empty ones)
//	GET    /debug/pprof/           Go profiling, when cfg.Pprof is set
//	GET    /                       index: title, the daemon's routes, these
//
// Every route is wrapped in telemetry.Middleware (request metrics,
// server spans, structured logs) around tenant authentication, so 401s
// are metered and logged like any other response.
func Handler(mux *http.ServeMux, svc Service, tel *telemetry.Telemetry, cfg HandlerConfig, title, routes string) http.Handler {
	mux.HandleFunc("GET /api/v1/events", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeSSE(w, r, svc.Bus(), "", eventFilter(svc.Tenants(), r))
		svc.SyncBusMetrics()
	})

	// Distributed-trace surface: the spans this daemon retains, listed
	// and fetched per trace (mtatctl trace merges them across daemons).
	mux.HandleFunc("GET /api/v1/traces", tel.ServeTraceList)
	mux.HandleFunc("GET /api/v1/traces/{id}", tel.ServeTrace)

	// Tenancy surface: usage snapshots for every tenant, and the admin
	// hot-reload endpoint (live config push without a restart; SIGHUP on
	// the daemon re-reads the -tenants file through the same path).
	mux.HandleFunc("GET /api/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.Tenants().List())
	})
	mux.HandleFunc("POST /api/v1/config/tenants", func(w http.ResponseWriter, r *http.Request) {
		t := tenant.FromContext(r.Context())
		if t == nil || !t.IsAdmin() {
			WriteError(w, http.StatusForbidden, errors.New("tenant config reload requires an admin tenant"))
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		cfg, err := tenant.ParseConfig(body)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		reg := svc.Tenants()
		if err := reg.Reload(cfg); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if rl, ok := svc.(TenantsReloader); ok {
			rl.TenantsReloaded()
		}
		WriteJSON(w, http.StatusOK, tenant.ReloadResult{
			Tenants:    reg.Count(),
			Generation: reg.Generation(),
		})
	})

	// Probes: /healthz is pure liveness; /readyz asks the service
	// (journal replay done, headroom, not draining), so orchestration
	// and CI gate traffic on it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := svc.Ready(); !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})

	// Daemon-level observability: the telemetry handler serves the
	// debug surface (/metrics and /trace snapshots, pprof under
	// /debug/pprof/ when enabled).
	th := tel.Handler()
	mux.Handle("/metrics", th)
	mux.Handle("/trace", th)
	if cfg.Pprof {
		mux.Handle("/debug/", th)
	}

	index := title + "\n\n" + routes + sharedIndex
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			WriteError(w, http.StatusNotFound, errors.New("no such endpoint"))
			return
		}
		io.WriteString(w, index)
	})

	return telemetry.Middleware(tel, slog.Default())(tenant.Middleware(svc.Tenants(), mux))
}

// eventFilter scopes a firehose subscription to the caller's own
// events: a non-admin tenant sees only events tagged with its
// TenantName; admins — and every caller on a permissive daemon (no
// tenant config) — see everything (nil filter).
func eventFilter(reg *tenant.Registry, r *http.Request) func(telemetry.BusEvent) bool {
	t := tenant.FromContext(r.Context())
	if t == nil || t.IsAdmin() || reg.Count() == 0 {
		return nil
	}
	name := TenantName(t)
	return func(ev telemetry.BusEvent) bool { return ev.Tenant == name }
}

// errorEnvelope is the JSON error body every daemon answers with.
type errorEnvelope struct {
	Error string `json:"error"`
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with err in the JSON error envelope.
func WriteError(w http.ResponseWriter, code int, err error) {
	msg := "unknown error"
	if err != nil {
		msg = strings.TrimSpace(err.Error())
	}
	WriteJSON(w, code, errorEnvelope{Error: msg})
}
