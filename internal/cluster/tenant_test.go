package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// newTenantFleetAPI stands up a fleet API enforcing the given tenant
// config.
func newTenantFleetAPI(t *testing.T, cfg tenant.Config, nodes ...*testNode) (*Fleet, string) {
	t.Helper()
	tel := telemetry.New()
	reg, err := tenant.New(&cfg, tel)
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleetCfg(t, FleetConfig{Telemetry: tel, Tenants: reg}, nodes...)
	srv := httptest.NewServer(NewHandler(f, tel))
	t.Cleanup(srv.Close)
	return f, srv.URL
}

// TestFirehoseAnonymousSeesOwnEvents: on a fleet whose tenant config
// allows anonymous callers, a non-admin anonymous firehose subscriber
// sees the events of its own sweeps — they are tagged with the
// anonymous tenant's record name, "".
func TestFirehoseAnonymousSeesOwnEvents(t *testing.T) {
	node := newTestNode(t, 2)
	_, url := newTenantFleetAPI(t, tenant.Config{
		AllowAnonymous: true,
		Tenants:        []tenant.Spec{{Name: "ops", Token: "tok-ops"}},
	}, node)
	c := NewClient(url)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	stream, err := c.StreamEvents(ctx, "", "")
	if err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	defer stream.Close()
	spec := sweep12()
	spec.Seeds = []int64{1}
	st, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		frame, err := stream.Next()
		if err != nil {
			t.Fatalf("firehose ended before the anonymous caller saw its sweep finish: %v", err)
		}
		if strings.HasPrefix(frame.Event, "stream.") {
			continue
		}
		var ev telemetry.BusEvent
		if err := json.Unmarshal(frame.Data, &ev); err != nil {
			t.Fatalf("bad payload %q: %v", frame.Data, err)
		}
		if ev.Kind != telemetry.EvBusSweepState {
			continue
		}
		var ss SweepStatus
		raw, _ := json.Marshal(ev.Data)
		if err := json.Unmarshal(raw, &ss); err != nil {
			t.Fatalf("bad sweep.state: %v", err)
		}
		if ss.ID == st.ID && ss.State.Terminal() {
			return
		}
	}
}

// TestSubmitSweepRetryAfter: a rate-limited submission comes back as a
// 429 APIError carrying the fleet's Retry-After hint.
func TestSubmitSweepRetryAfter(t *testing.T) {
	_, url := newTenantFleetAPI(t, tenant.Config{
		Tenants: []tenant.Spec{{Name: "ops", Token: "tok-ops",
			Quota: tenant.Quota{RatePerSec: 0.01, Burst: 1}}},
	})
	c := NewClient(url)
	c.Token = "tok-ops"
	ctx := context.Background()
	spec := sweep12()
	spec.Seeds = []int64{1}
	if _, err := c.SubmitSweep(ctx, spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := c.SubmitSweep(ctx, spec)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", apiErr.RetryAfter)
	}
}
