package daemon

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Store is the retention skeleton shared by both daemons' registries
// (runs, sweeps) and by their journal replays: entries by ID in
// submission order, the finish order that drives cap eviction, and the
// ID counter. It is not safe for concurrent use; owners guard it with
// their own mutex.
type Store[T any] struct {
	prefix   string
	byID     map[string]T
	order    []string // submission order
	finished []string // finish order, oldest first: the eviction order
	nextID   int
}

// NewStore returns an empty store whose IDs are prefix followed by a
// six-digit counter ("r000001" for runs, "s000001" for sweeps).
func NewStore[T any](prefix string) *Store[T] {
	return &Store[T]{prefix: prefix, byID: make(map[string]T)}
}

// Allocate reserves the next ID.
func (s *Store[T]) Allocate() string {
	s.nextID++
	return fmt.Sprintf("%s%06d", s.prefix, s.nextID)
}

// Unallocate returns the ID of the latest Allocate, whose submission
// was rejected before Add.
func (s *Store[T]) Unallocate() { s.nextID-- }

// NextID is the counter behind the last allocated ID, for snapshots.
func (s *Store[T]) NextID() int { return s.nextID }

// Add registers v under id in submission order, keeping the ID counter
// above every ID added so replayed and new entries never collide.
func (s *Store[T]) Add(id string, v T) {
	s.byID[id] = v
	s.order = append(s.order, id)
	n, err := strconv.Atoi(strings.TrimPrefix(id, s.prefix))
	if err == nil && n > s.nextID {
		s.nextID = n
	}
}

// Get looks an entry up by ID.
func (s *Store[T]) Get(id string) (T, bool) {
	v, ok := s.byID[id]
	return v, ok
}

// Len counts the retained entries.
func (s *Store[T]) Len() int { return len(s.byID) }

// All returns the retained entries in submission order.
func (s *Store[T]) All() []T {
	out := make([]T, 0, len(s.order))
	for _, id := range s.order {
		if v, ok := s.byID[id]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Finish appends id to the finish order; an ID already there keeps its
// place.
func (s *Store[T]) Finish(id string) {
	if !slices.Contains(s.finished, id) {
		s.finished = append(s.finished, id)
	}
}

// Retained counts the finished entries held.
func (s *Store[T]) Retained() int { return len(s.finished) }

// FinishOrder returns a copy of the finish order, for snapshots.
func (s *Store[T]) FinishOrder() []string { return append([]string(nil), s.finished...) }

// Reset empties the store for a journal snapshot record: the snapshot's
// finish order replaces the current one and the ID counter never moves
// back.
func (s *Store[T]) Reset(nextID int, finished []string) {
	s.byID = make(map[string]T)
	s.order = s.order[:0]
	s.finished = append(s.finished[:0], finished...)
	s.nextID = max(s.nextID, nextID)
}

// Inherit takes over a replayed finish order and ID counter after the
// replayed entries were re-added: only IDs that resolve to a terminal
// entry join the finish order.
func (s *Store[T]) Inherit(finished []string, nextID int, terminal func(T) bool) {
	for _, id := range finished {
		if v, ok := s.byID[id]; ok && terminal(v) {
			s.finished = append(s.finished, id)
		}
	}
	s.nextID = nextID
}

// Evict drops the oldest finished entries beyond limit, calling evicted
// (when non-nil) with each dropped ID.
func (s *Store[T]) Evict(limit int, evicted func(id string)) {
	for len(s.finished) > limit {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.byID, id)
		if i := slices.Index(s.order, id); i >= 0 {
			s.order = slices.Delete(s.order, i, i+1)
		}
		if evicted != nil {
			evicted(id)
		}
	}
}

// Journal is a daemon's handle on its write-ahead journal. A daemon
// without a data dir has a closed Journal, on which every method is a
// no-op. Delta appends and compactions downgrade failures to log lines:
// an unjournaled transition costs at-least-once re-execution after a
// crash, not correctness. Callers serialize calls under their own lock.
type Journal struct {
	jn           *journal.Journal
	pkg          string // log-line prefix
	compactEvery int64
	logf         func(format string, args ...any)
}

// NewJournal returns a closed journal whose log lines carry pkg, and
// which compacts once compactEvery delta records accumulate.
func NewJournal(pkg string, compactEvery int, logf func(format string, args ...any)) *Journal {
	return &Journal{pkg: pkg, compactEvery: int64(compactEvery), logf: logf}
}

// Open opens the journal in dir and replays it through apply.
func (j *Journal) Open(dir string, opts journal.Options, apply func(journal.Record) error) (journal.ReplayStats, error) {
	jn, stats, err := journal.Open(dir, opts, apply)
	if err != nil {
		return stats, fmt.Errorf("%s: open data dir: %w", j.pkg, err)
	}
	j.jn = jn
	return stats, nil
}

// AppendTraced writes a record whose failure the caller must handle —
// the submission record, without which the daemon must not accept
// work. When ctx carries a trace the append records a journal.append
// span in tel, tagged with attr.
func (j *Journal) AppendTraced(ctx context.Context, tel *telemetry.Telemetry, typ string, v any, attr telemetry.SpanAttr) error {
	if j.jn == nil {
		return nil
	}
	var span *telemetry.ActiveSpan
	if telemetry.SpanContextFrom(ctx).Valid() {
		_, span = tel.Spans().StartSpan(ctx, "journal.append", attr, telemetry.SA("rec", typ))
	}
	err := j.jn.Append(typ, v)
	span.End(err)
	return err
}

// AppendOrLog writes a delta record, logging a failure.
func (j *Journal) AppendOrLog(typ string, v any) {
	if j.jn == nil {
		return
	}
	if err := j.jn.Append(typ, v); err != nil {
		j.logf("%s: journal append %s failed: %v", j.pkg, typ, err)
	}
}

// MaybeCompact replaces the journal with one snapshot record of type
// typ once enough delta records have accumulated since the last one.
func (j *Journal) MaybeCompact(typ string, snapshot func() any) {
	if j.jn == nil || j.jn.Records() < j.compactEvery {
		return
	}
	if err := j.jn.Compact(typ, snapshot()); err != nil {
		j.logf("%s: journal compaction failed: %v", j.pkg, err)
	}
}

// Close closes the journal, logging a failure; later calls are no-ops.
func (j *Journal) Close() {
	if j.jn == nil {
		return
	}
	if err := j.jn.Close(); err != nil {
		j.logf("%s: journal close failed: %v", j.pkg, err)
	}
	j.jn = nil
}

// Drain waits for wg; if ctx expires first it calls abandon (cancel the
// outstanding work), still waits, and returns ctx's error.
func Drain(ctx context.Context, wg *sync.WaitGroup, abandon func()) error {
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		abandon()
		<-drained
		return ctx.Err()
	}
}

// TenantName renders an owning tenant for statuses, journal records and
// bus events: "" for nil and for the anonymous tenant, so single-tenant
// deployments produce records byte-identical to pre-tenant journals.
func TenantName(t *tenant.Tenant) string {
	if t == nil || t.Name() == tenant.AnonymousName {
		return ""
	}
	return t.Name()
}

// TraceOrEmpty renders a trace ID for a journal record or status, ""
// when unset.
func TraceOrEmpty(id telemetry.TraceID) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}

// SyncBusMetrics mirrors a bus's cumulative publish/overflow accounting
// into tel's registry.
func SyncBusMetrics(tel *telemetry.Telemetry, bus *telemetry.EventBus) {
	reg := tel.Metrics()
	reg.Counter(telemetry.MetricBusPublished).RaiseTo(int64(bus.Published()))
	reg.Counter(telemetry.MetricBusDropped).RaiseTo(int64(bus.Dropped()))
}
