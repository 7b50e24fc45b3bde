package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/tieredmem/mtat/internal/daemon"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// AddNodeRequest is the POST /api/v1/nodes body.
type AddNodeRequest struct {
	// Addr is the mtatd address (host:port or URL).
	Addr string `json:"addr"`
	// Weight is the capacity weight (0 selects 1).
	Weight float64 `json:"weight,omitempty"`
}

// HandlerConfig tunes the optional surfaces of the fleet API.
type HandlerConfig = daemon.HandlerConfig

// NewHandler is NewHandlerWith with every optional surface enabled.
func NewHandler(f *Fleet, tel *telemetry.Telemetry) http.Handler {
	return NewHandlerWith(f, tel, HandlerConfig{Pprof: true})
}

// NewHandlerWith builds the fleet control-plane HTTP API:
//
//	POST   /api/v1/sweeps               submit a SweepSpec (202; 400 invalid, 503 draining)
//	GET    /api/v1/sweeps               list retained sweeps
//	GET    /api/v1/sweeps/{id}          one sweep's status with per-cell states
//	GET    /api/v1/sweeps/{id}/results  settled cell summaries (?format=json|jsonl|csv)
//	GET    /api/v1/sweeps/{id}/events   live SSE stream of sweep state + cell settlements
//	DELETE /api/v1/sweeps/{id}          cancel a running sweep
//	GET    /api/v1/status               fleet stats (nodes, sweeps, recovery counts)
//	GET    /api/v1/nodes                node pool with health and load
//	POST   /api/v1/nodes                register a mtatd node {"addr","weight"}
//	DELETE /api/v1/nodes/{name}         deregister a node (by name or address)
//	GET    /metrics/federate            merged fleet-wide Prometheus exposition
//
// plus the routes every daemon serves (daemon.Handler): the SSE
// firehose across all sweeps, traces, tenants, probes — /readyz demands
// journal replay done and recovered sweeps resumed — and tel's
// /metrics, /trace and, with cfg.Pprof, /debug/pprof/.
func NewHandlerWith(f *Fleet, tel *telemetry.Telemetry, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, daemon.MaxBodyBytes))
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		spec, err := sim.ParseSweepSpec(body)
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, err)
			return
		}
		st, err := f.SubmitCtx(r.Context(), spec)
		var qe *tenant.QuotaError
		switch {
		case errors.Is(err, ErrFleetClosed):
			daemon.WriteError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &qe):
			// Per-tenant admission rejection: tell the client when its
			// rate bucket refills (or a generic hint for quota/cost).
			w.Header().Set("Retry-After", tenant.RetryAfterSeconds(qe.RetryAfter))
			daemon.WriteError(w, http.StatusTooManyRequests, err)
		case err != nil:
			daemon.WriteError(w, http.StatusBadRequest, err)
		default:
			daemon.WriteJSON(w, http.StatusAccepted, st)
		}
	})

	mux.HandleFunc("GET /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, f.List())
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.Get(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		sums, err := f.Results(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			daemon.WriteJSON(w, http.StatusOK, sums)
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = WriteSummariesJSONL(w, sums)
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			_ = WriteSummariesCSV(w, sums)
		default:
			daemon.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("cluster: unknown format %q (valid: json, jsonl, csv)", format))
		}
	})

	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := f.Get(id); err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		telemetry.ServeSSE(w, r, f.Bus(), sweepTopic(id), nil)
		f.SyncBusMetrics()
	})

	mux.HandleFunc("DELETE /api/v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := f.Cancel(r.PathValue("id"))
		if err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, f.Stats())
	})

	mux.HandleFunc("GET /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, f.Reg.Nodes())
	})

	mux.HandleFunc("POST /api/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		var req AddNodeRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("parse body: %w", err))
			return
		}
		if req.Addr == "" {
			daemon.WriteError(w, http.StatusBadRequest, errors.New("cluster: addr required"))
			return
		}
		info, err := f.Reg.Add(req.Addr, req.Weight)
		switch {
		case errors.Is(err, ErrNodeExists):
			daemon.WriteError(w, http.StatusConflict, err)
		case err != nil:
			daemon.WriteError(w, http.StatusBadRequest, err)
		default:
			daemon.WriteJSON(w, http.StatusCreated, info)
		}
	})

	mux.HandleFunc("DELETE /api/v1/nodes/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := f.Reg.Remove(r.PathValue("name")); err != nil {
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, map[string]string{"removed": r.PathValue("name")})
	})

	// Federated scrape: one exposition covering every registered mtatd
	// plus the fleet itself. Outside the /api/v1 tenant guard, like
	// /metrics.
	mux.Handle("GET /metrics/federate", f.Federator())

	return daemon.Handler(mux, f, tel, cfg, "mtatfleet control plane",
		"POST   /api/v1/sweeps\n"+
			"GET    /api/v1/sweeps\n"+
			"GET    /api/v1/sweeps/{id}\n"+
			"GET    /api/v1/sweeps/{id}/results?format=json|jsonl|csv\n"+
			"GET    /api/v1/sweeps/{id}/events  (SSE)\n"+
			"DELETE /api/v1/sweeps/{id}\n"+
			"GET    /api/v1/status\n"+
			"GET    /api/v1/nodes\n"+
			"POST   /api/v1/nodes\n"+
			"DELETE /api/v1/nodes/{name}\n"+
			"GET    /metrics/federate  (merged fleet-wide Prometheus exposition)\n")
}
