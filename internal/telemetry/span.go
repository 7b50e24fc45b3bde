package telemetry

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/ring"
)

// Distributed request tracing. One request (a mtatctl submission, a
// sweep cell, a run execution) is a trace: a tree of spans, each
// recording a named operation's start time, duration, and outcome in
// one process. Trace identity travels between processes in the W3C
// `traceparent` HTTP header (version 00), so a sweep cell submitted to
// mtatfleet and executed on a mtatd node yields spans in both daemons
// under one trace ID; `mtatctl trace` stitches them back together.
//
// Like the rest of this package, everything is nil-safe: a nil
// *SpanStore accepts every call as a no-op and StartSpan on it returns
// a usable (inert) *Span, so instrumented code never branches on
// whether tracing is attached.

// TraceID identifies one distributed request (16 bytes, hex-encoded on
// the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex-encoded).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalJSON encodes the ID as a hex string.
func (t TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// MarshalJSON encodes the ID as a hex string.
func (s SpanID) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a hex string ID.
func (t *TraceID) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	id, err := ParseTraceID(str)
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// UnmarshalJSON decodes a hex string ID.
func (s *SpanID) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	id, err := ParseSpanID(str)
	if err != nil {
		return err
	}
	*s = id
	return nil
}

// ParseTraceID decodes a 32-char hex trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("telemetry: trace ID must be 32 hex chars, got %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("telemetry: bad trace ID %q: %w", s, err)
	}
	return id, nil
}

// ParseSpanID decodes a 16-char hex span ID.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("telemetry: span ID must be 16 hex chars, got %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("telemetry: bad span ID %q: %w", s, err)
	}
	return id, nil
}

// idSource is a cheap concurrency-safe random ID generator: a
// crypto/rand-seeded counter block. IDs must be unique, not
// unpredictable, so burning crypto/rand entropy per span would be
// waste.
var idSource struct {
	mu   sync.Mutex
	hi   uint64
	next uint64
}

func init() {
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// Degraded but functional: time-based uniqueness.
		binary.LittleEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
	}
	idSource.hi = binary.LittleEndian.Uint64(seed[:8])
	idSource.next = binary.LittleEndian.Uint64(seed[8:])
}

func nextID() (hi, lo uint64) {
	idSource.mu.Lock()
	idSource.next++
	hi, lo = idSource.hi, idSource.next
	idSource.mu.Unlock()
	return hi, lo
}

// NewTraceID returns a fresh random-unique trace ID.
func NewTraceID() TraceID {
	var id TraceID
	hi, lo := nextID()
	binary.BigEndian.PutUint64(id[:8], hi)
	binary.BigEndian.PutUint64(id[8:], lo)
	return id
}

// NewSpanID returns a fresh random-unique span ID.
func NewSpanID() SpanID {
	var id SpanID
	hi, lo := nextID()
	binary.BigEndian.PutUint64(id[:], hi^lo)
	return id
}

// SpanContext is the portable part of a span — what crosses process
// boundaries in the traceparent header and what a child span needs
// from its parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real trace and span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders the context as a version-00 traceparent
// value: 00-<trace-id>-<parent-id>-01 (sampled flag always set — this
// system records every span).
func FormatTraceparent(sc SpanContext) string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a version-00 traceparent value. It accepts
// future versions with the same prefix layout (per the spec, an
// unknown version is parsed as version 00 if the 00 fields fit).
func ParseTraceparent(v string) (SpanContext, error) {
	var sc SpanContext
	if len(v) < 55 {
		return sc, fmt.Errorf("telemetry: traceparent too short: %q", v)
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return sc, fmt.Errorf("telemetry: malformed traceparent: %q", v)
	}
	if v[:2] == "ff" {
		return sc, fmt.Errorf("telemetry: invalid traceparent version ff")
	}
	trace, err := ParseTraceID(v[3:35])
	if err != nil {
		return sc, err
	}
	span, err := ParseSpanID(v[36:52])
	if err != nil {
		return sc, err
	}
	sc = SpanContext{Trace: trace, Span: span}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("telemetry: all-zero traceparent IDs: %q", v)
	}
	return sc, nil
}

// Inject sets the traceparent header from ctx's span context, if any.
// Safe to call on any context — no span, no header.
func Inject(ctx context.Context, h http.Header) {
	if sc := SpanContextFrom(ctx); sc.Valid() {
		h.Set(TraceparentHeader, FormatTraceparent(sc))
	}
}

// Extract reads the traceparent header into a span context; ok is
// false when the header is absent or malformed.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	return sc, err == nil
}

// ctxKey keys the span context in a context.Context.
type ctxKey struct{}

// ContextWithSpanContext attaches sc to ctx; child spans started from
// the returned context parent under sc, and outbound HTTP requests
// carry it in traceparent.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanContextFrom returns ctx's span context (zero when none).
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// NewTraceContext starts a fresh trace with a synthetic root span
// context and attaches it to ctx — how a client (mtatctl) originates a
// trace without recording any span itself. Returns the derived context
// and the new trace ID.
func NewTraceContext(ctx context.Context) (context.Context, TraceID) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	return ContextWithSpanContext(ctx, sc), sc.Trace
}

// SpanAttr is one string-valued span attribute.
type SpanAttr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// SA builds a span attribute.
func SA(key, val string) SpanAttr { return SpanAttr{Key: key, Val: val} }

// Span statuses.
const (
	SpanOK    = "ok"
	SpanError = "error"
)

// Span is one recorded operation — pure data, the JSONL wire format
// served at /api/v1/traces.
type Span struct {
	Trace    TraceID    `json:"trace"`
	ID       SpanID     `json:"span"`
	Parent   SpanID     `json:"parent"`
	Name     string     `json:"name"`
	Service  string     `json:"service,omitempty"`
	Start    time.Time  `json:"start"`
	Duration float64    `json:"duration_s"`
	Status   string     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Attrs    []SpanAttr `json:"attrs,omitempty"`
}

// ActiveSpan is a live, not-yet-recorded span handle returned by
// StartSpan. All methods are safe for concurrent use and no-ops on a
// nil receiver (which is what a nil store hands out).
type ActiveSpan struct {
	mu    sync.Mutex
	span  Span
	store *SpanStore
	ended bool
}

// SetAttr attaches a string attribute to a live span. No-op after End.
func (s *ActiveSpan) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.span.Attrs = append(s.span.Attrs, SpanAttr{Key: key, Val: val})
	}
	s.mu.Unlock()
}

// Context returns the span's portable context (zero on a nil span).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.span.Trace, Span: s.span.ID}
}

// End closes the span with SpanOK (nil err) or SpanError, stamps its
// duration, and records it into the store. Repeated End calls and End
// on a nil span are no-ops.
func (s *ActiveSpan) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.span.Duration = time.Since(s.span.Start).Seconds()
	if err != nil {
		s.span.Status = SpanError
		s.span.Error = err.Error()
	} else {
		s.span.Status = SpanOK
	}
	rec := s.span
	store := s.store
	s.mu.Unlock()
	store.add(rec)
}

// DefaultSpanCapacity is the default bounded span-store size.
const DefaultSpanCapacity = 1 << 13

// SpanStore retains the most recent finished spans of one process in a
// bounded ring. Emission is O(1); overflow overwrites the oldest span
// and is counted (surfaced as telemetry_spans_dropped_total so silent
// loss is observable). All methods are safe for concurrent use and
// no-ops on a nil receiver.
type SpanStore struct {
	service string

	mu    sync.Mutex
	buf   ring.Ring[Span]
	count uint64
}

// NewSpanStore returns a store retaining the last capacity spans,
// stamping each with the given service name (<= 0 selects
// DefaultSpanCapacity). Storage grows with the spans recorded.
func NewSpanStore(service string, capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{service: service, buf: ring.New[Span](capacity)}
}

// SetService names the process recorded on every span (e.g. "mtatd").
func (st *SpanStore) SetService(name string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.service = name
	st.mu.Unlock()
}

// StartSpan opens a span named name as a child of ctx's span context
// (a root span when ctx carries none), returning a derived context
// carrying the new span and the live span handle. The caller must End
// it. On a nil store the span is nil (inert but safe) and ctx is
// returned unchanged — instrumented code stays branch-free.
func (st *SpanStore) StartSpan(ctx context.Context, name string, attrs ...SpanAttr) (context.Context, *ActiveSpan) {
	if st == nil {
		return ctx, nil
	}
	parent := SpanContextFrom(ctx)
	sp := &ActiveSpan{
		span: Span{
			ID:    NewSpanID(),
			Name:  name,
			Start: time.Now(),
			Attrs: attrs,
		},
		store: st,
	}
	if parent.Valid() {
		sp.span.Trace = parent.Trace
		sp.span.Parent = parent.Span
	} else {
		sp.span.Trace = NewTraceID()
	}
	st.mu.Lock()
	sp.span.Service = st.service
	st.mu.Unlock()
	return ContextWithSpanContext(ctx, sp.Context()), sp
}

// add records one finished span.
func (st *SpanStore) add(sp Span) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.buf.Push(sp)
	st.count++
	st.mu.Unlock()
}

// Len returns the number of spans currently retained.
func (st *SpanStore) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf.Len()
}

// Count returns the total number of spans ever recorded.
func (st *SpanStore) Count() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.count
}

// Dropped returns how many spans ring overflow has discarded.
func (st *SpanStore) Dropped() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf.Dropped()
}

// Spans returns a copy of the retained spans, oldest first.
func (st *SpanStore) Spans() []Span {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf.Append(make([]Span, 0, st.buf.Len()), nil)
}

// ByTrace returns the retained spans of one trace, oldest first.
func (st *SpanStore) ByTrace(id TraceID) []Span {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf.Append(nil, func(sp *Span) bool { return sp.Trace == id })
}

// TraceIDs returns the distinct trace IDs present in the store, in
// first-seen (oldest span) order.
func (st *SpanStore) TraceIDs() []TraceID {
	seen := make(map[TraceID]bool)
	var out []TraceID
	for _, sp := range st.Spans() {
		if !seen[sp.Trace] {
			seen[sp.Trace] = true
			out = append(out, sp.Trace)
		}
	}
	return out
}

// WriteSpansJSONL renders spans one JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeSpansJSONL parses a JSONL span stream (the /api/v1/traces wire
// format). Blank lines are skipped; a malformed line fails the decode.
func DecodeSpansJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return nil, fmt.Errorf("telemetry: bad span line: %w", err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
