package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
	"github.com/tieredmem/mtat/internal/workload"
)

// Meta describes the service's vocabulary — the valid names a spec may
// use. Served at GET /api/v1/meta so clients can print helpful errors
// without hardcoding the lists.
type Meta struct {
	LCWorkloads []string `json:"lc_workloads"`
	BEWorkloads []string `json:"be_workloads"`
	Policies    []string `json:"policies"`
	LoadKinds   []string `json:"load_kinds"`
	Workers     int      `json:"workers"`
}

// HandlerConfig tunes the optional surfaces of the control-plane API.
type HandlerConfig = daemon.HandlerConfig

// NewHandler is NewHandlerWith with every optional surface enabled.
func NewHandler(m *Manager, tel *telemetry.Telemetry) http.Handler {
	return NewHandlerWith(m, tel, HandlerConfig{Pprof: true})
}

// NewHandlerWith builds the control-plane HTTP API around a manager:
//
//	POST   /api/v1/runs             submit a RunSpec (202; 400 invalid, 429 queue full, 503 draining)
//	GET    /api/v1/runs             list retained runs
//	GET    /api/v1/runs/{id}        one run's status and result summary
//	GET    /api/v1/runs/{id}/events the run's private trace as JSONL — or, with
//	                                Accept: text/event-stream, a live SSE feed of
//	                                lifecycle/flight/stats events (Last-Event-ID resume)
//	GET    /api/v1/runs/{id}/flight the run's flight-recorder dump (JSON; ?after=<seq>
//	                                returns only events newer than the cursor)
//	DELETE /api/v1/runs/{id}        cancel a queued or running run
//	GET    /api/v1/status           node load signal (queue depth, active runs, store occupancy)
//	GET    /api/v1/meta             valid workload/policy/load names
//
// plus the routes every daemon serves (daemon.Handler): the SSE
// firehose, traces, tenants, probes — /readyz demands journal replay
// done and queue headroom — and tel's /metrics, /trace and, with
// cfg.Pprof, /debug/pprof/.
func NewHandlerWith(m *Manager, tel *telemetry.Telemetry, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, daemon.MaxBodyBytes))
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		spec, err := sim.ParseRunSpec(body)
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, err)
			return
		}
		st, err := m.SubmitCtx(r.Context(), spec)
		var qe *tenant.QuotaError
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			daemon.WriteError(w, http.StatusTooManyRequests, err)
		case errors.As(err, &qe):
			// Per-tenant admission rejection: tell the client when its
			// rate bucket refills (or a generic hint for quota/cost).
			w.Header().Set("Retry-After", tenant.RetryAfterSeconds(qe.RetryAfter))
			daemon.WriteError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown):
			daemon.WriteError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			daemon.WriteError(w, http.StatusBadRequest, err)
		default:
			daemon.WriteJSON(w, http.StatusAccepted, st)
		}
	})

	mux.HandleFunc("GET /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Content negotiation keeps one URL for both shapes: an SSE
		// Accept header gets the live event stream (lifecycle, flight,
		// stats deltas); everything else gets the historical JSONL
		// trace dump that `mtatctl logs` and scripted consumers expect.
		if wantsSSE(r) {
			if _, err := m.Get(id); err != nil {
				daemon.WriteError(w, http.StatusNotFound, err)
				return
			}
			telemetry.ServeSSE(w, r, m.Bus(), runTopic(id), nil)
			m.SyncBusMetrics()
			return
		}
		tr, err := m.Events(id)
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := tr.WriteJSONL(w); err != nil {
			// Headers are gone; nothing useful left to send.
			return
		}
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/flight", func(w http.ResponseWriter, r *http.Request) {
		fl, err := m.Flight(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		m.SyncFlightDrops(r.PathValue("id"))
		w.Header().Set("Content-Type", "application/json")
		// The ?after cursor lets pollers fetch only events newer than
		// the last sequence number they saw instead of the whole ring.
		if v := r.URL.Query().Get("after"); v != "" {
			after, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q: %w", v, err))
				return
			}
			_ = fl.WriteJSONAfter(w, after)
			return
		}
		_ = fl.WriteJSON(w)
	})

	mux.HandleFunc("DELETE /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("GET /api/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, Meta{
			LCWorkloads: workload.LCNames(),
			BEWorkloads: workload.BENames(),
			Policies:    sim.PolicyNames(),
			LoadKinds:   sim.LoadKinds(),
			Workers:     m.Workers(),
		})
	})

	return daemon.Handler(mux, m, tel, cfg, "mtatd control plane",
		"POST   /api/v1/runs\n"+
			"GET    /api/v1/runs\n"+
			"GET    /api/v1/runs/{id}\n"+
			"GET    /api/v1/runs/{id}/events  (Accept: text/event-stream for live SSE)\n"+
			"GET    /api/v1/runs/{id}/flight  (?after=<seq> cursor)\n"+
			"DELETE /api/v1/runs/{id}\n"+
			"GET    /api/v1/status\n"+
			"GET    /api/v1/meta\n")
}

// wantsSSE reports whether the request negotiated a live event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), telemetry.SSEContentType)
}
