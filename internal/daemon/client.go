package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Client is the HTTP request core both daemons' clients embed:
// server.Client adds the run calls, cluster.Client the sweep and node
// calls.
type Client struct {
	// BaseURL is the daemon's root URL (e.g. "http://127.0.0.1:7070").
	BaseURL string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	HTTPClient *http.Client
	// Token, when set, is sent as a bearer token on every request
	// (mtatctl wires -token / $MTAT_TOKEN here; the fleet dispatcher
	// its -node-token).
	Token string
	// OnBehalfOf attributes requests to the named tenant via the
	// X-Mtat-Tenant header. The authenticated tenant must be an admin
	// (the fleet dispatcher uses this to carry each cell's originating
	// tenant to the node).
	OnBehalfOf string

	// name is the daemon's binary name, prefixed to error messages.
	name string
}

// NewClient returns a client for the named daemon at addr, which may be
// a bare host:port or a full http:// URL.
func NewClient(name, addr string) Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return Client{BaseURL: strings.TrimRight(addr, "/"), name: name}
}

// APIError is a non-2xx response decoded from a daemon's error
// envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter carries the response's Retry-After header (0 when
	// absent) — quota and backpressure 429s tell the client when to
	// come back.
	RetryAfter time.Duration

	daemon string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s (HTTP %d)", e.daemon, e.Message, e.StatusCode)
}

// StatusCode returns the HTTP status of an *APIError in err's chain, 0
// when err is not an API answer (a transport failure, say).
func StatusCode(err error) int {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode
	}
	return 0
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// send issues one request carrying the client's auth, the caller's
// trace context, a JSON body (when body is non-nil) and the extra
// headers in hdr.
func (c *Client) send(ctx context.Context, method, path string, body any, hdr map[string]string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.OnBehalfOf != "" {
		req.Header.Set(tenant.OnBehalfOfHeader, c.OnBehalfOf)
	}
	telemetry.Inject(ctx, req.Header)
	return c.httpClient().Do(req)
}

// Do issues the request and decodes a JSON response into out (skipped
// when out is nil). Non-2xx responses become *APIError.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return c.decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// get opens a GET whose answer must be 200; the caller closes the body.
func (c *Client) get(ctx context.Context, path string, hdr map[string]string) (io.ReadCloser, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil, hdr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, c.decodeError(resp)
	}
	return resp.Body, nil
}

// Stream copies a GET response body into w.
func (c *Client) Stream(ctx context.Context, path string, w io.Writer) error {
	body, err := c.get(ctx, path, nil)
	if err != nil {
		return err
	}
	defer body.Close()
	_, err = io.Copy(w, body)
	return err
}

// OpenSSE opens the live SSE stream at path. lastEventID, when
// non-empty, is sent as the Last-Event-ID resume cursor; the caller
// owns closing the returned stream.
func (c *Client) OpenSSE(ctx context.Context, path, lastEventID string) (*telemetry.SSEStream, error) {
	hdr := map[string]string{"Accept": telemetry.SSEContentType}
	if lastEventID != "" {
		hdr["Last-Event-ID"] = lastEventID
	}
	body, err := c.get(ctx, path, hdr)
	if err != nil {
		return nil, err
	}
	return telemetry.NewSSEStream(body), nil
}

func (c *Client) decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data)), daemon: c.name}
	var env errorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error != "" {
		apiErr.Message = env.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Ready polls GET /readyz once; a non-200 answer (or transport error)
// comes back as an error carrying the daemon's reason.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.send(ctx, http.MethodGet, "/readyz", nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s: not ready: %s (HTTP %d)",
			c.name, strings.TrimSpace(string(data)), resp.StatusCode)
	}
	return nil
}

// Traces fetches the spans this daemon retains for one distributed
// trace. An unknown trace is not an error — the daemon simply holds no
// spans for it — so the caller can sweep a whole fleet and merge.
func (c *Client) Traces(ctx context.Context, trace string) ([]telemetry.Span, error) {
	body, err := c.get(ctx, "/api/v1/traces/"+trace, nil)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return telemetry.DecodeSpansJSONL(body)
}

// Metrics streams the daemon's /metrics endpoint into w in the given
// format ("json" or "prom"; "" keeps the server default).
func (c *Client) Metrics(ctx context.Context, format string, w io.Writer) error {
	path := "/metrics"
	if format != "" {
		path += "?format=" + format
	}
	return c.Stream(ctx, path, w)
}

// Tenants lists every tenant's live usage snapshot (admission counters,
// queue/active occupancy, rejection totals).
func (c *Client) Tenants(ctx context.Context) ([]tenant.Usage, error) {
	var out []tenant.Usage
	err := c.Do(ctx, http.MethodGet, "/api/v1/tenants", nil, &out)
	return out, err
}

// ReloadTenants pushes a new tenant config to the daemon (admin only) —
// the client-side twin of SIGHUP on a daemon launched with -tenants.
func (c *Client) ReloadTenants(ctx context.Context, cfg tenant.Config) (tenant.ReloadResult, error) {
	var res tenant.ReloadResult
	err := c.Do(ctx, http.MethodPost, "/api/v1/config/tenants", cfg, &res)
	return res, err
}

// DefaultPollInterval caps the status-polling interval of Poll.
const DefaultPollInterval = 500 * time.Millisecond

// DefaultMaxOutage is the tolerance for consecutive transport failures
// of durable waits that pass maxOutage <= 0 — generous enough to ride
// out a daemon SIGKILL, journal replay, and restart.
const DefaultMaxOutage = 2 * time.Minute

// Poll fetches id until terminal reports its status final or ctx is
// done, returning the last status. Polling starts fast and backs off
// exponentially with jitter up to poll (<= 0 selects
// DefaultPollInterval), so short waits return promptly while long ones
// stay cheap and de-synchronized across concurrent waiters.
//
// With maxOutage <= 0 the first fetch error ends the wait. With
// maxOutage > 0 the wait survives a daemon restart: transport errors
// and 503s are retried for up to maxOutage of consecutive failure, and
// a 429 — backpressure from a live daemon — never charges the outage
// window, its Retry-After stretching the sleep to the server's hint.
// Other API errors still end the wait: a 404 after replay means the
// entry is truly gone, and retrying cannot fix a 400.
func Poll[T any](ctx context.Context, c *Client, id string, poll, maxOutage time.Duration,
	fetch func(context.Context, string) (T, error), terminal func(T) bool,
) (T, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	base := min(max(poll/8, 10*time.Millisecond), poll)
	pol := backoff.Policy{Base: base, Max: poll}
	var zero T
	var outageStart time.Time
	for attempt := 0; ; attempt++ {
		st, err := fetch(ctx, id)
		var retryAfter time.Duration
		var apiErr *APIError
		answered := errors.As(err, &apiErr)
		switch {
		case err == nil:
			outageStart = time.Time{}
			if terminal(st) {
				return st, nil
			}
		case maxOutage <= 0:
			return zero, err
		case ctx.Err() != nil:
			return zero, ctx.Err()
		case answered && apiErr.StatusCode == http.StatusTooManyRequests:
			// The daemon answered — it is up, just shedding load. Reset
			// the outage clock and honor its Retry-After if present.
			outageStart = time.Time{}
			retryAfter = apiErr.RetryAfter
		case answered && apiErr.StatusCode != http.StatusServiceUnavailable:
			return zero, err
		case outageStart.IsZero():
			outageStart = time.Now()
		case time.Since(outageStart) > maxOutage:
			return zero, fmt.Errorf("%s: unreachable for %s waiting on %s: %w", c.name, maxOutage, id, err)
		}
		if retryAfter > pol.Delay(attempt) {
			if err := sleepCtx(ctx, retryAfter); err != nil {
				return st, err
			}
			continue
		}
		if err := pol.Sleep(ctx, attempt); err != nil {
			return st, err
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
