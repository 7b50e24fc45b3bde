// Package flight implements the simulator core's flight recorder: a
// bounded ring of recent core events (page promotions/demotions, SLO
// violations, policy switches, load shifts) kept per run so a slow,
// failed, or cancelled cell can be inspected after the fact without
// paying for a full event trace. The ring overwrites oldest-first and
// counts what it overwrote, so a dump always says how much history it
// is missing.
//
// Like the telemetry package, everything is nil-safe: a nil *Recorder
// accepts every call as a no-op, so the simulator records
// unconditionally and pays nothing when no recorder is attached.
package flight

import (
	"encoding/json"
	"io"
	"sync"

	"github.com/tieredmem/mtat/internal/ring"
)

// Event kinds recorded by the simulator core.
const (
	// KindRunStart opens a run. Detail carries the policy name; Value
	// the scheduled duration in seconds.
	KindRunStart = "run.start"
	// KindRunEnd closes a run. Detail carries the policy name; Value
	// the LC SLO-violation rate.
	KindRunEnd = "run.end"
	// KindPromotion reports pages promoted to FMem during one tick
	// (Value = pages).
	KindPromotion = "promotion"
	// KindDemotion reports pages demoted to SMem during one tick
	// (Value = pages).
	KindDemotion = "demotion"
	// KindSLOViolation marks a tick whose LC requests exceeded the SLO
	// (Value = fraction of the tick's requests beyond it).
	KindSLOViolation = "slo.violation"
	// KindPolicySwitch marks a change in the policy's externally visible
	// regime — the per-request LC stall it imposes flipped (Value = new
	// stall in seconds). Fault-driven policies like TPP switch when
	// promotions move on or off the request critical path.
	KindPolicySwitch = "policy.switch"
	// KindLoadShift marks a load-pattern level change (Value = new
	// offered fraction of max load).
	KindLoadShift = "load.shift"
)

// Event is one flight-recorder entry.
type Event struct {
	// Seq is the monotonically increasing sequence number across the
	// run; gaps at the start of a dump mean the ring overwrote history.
	Seq uint64 `json:"seq"`
	// T is the simulation time in seconds.
	T float64 `json:"t"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// WL is the workload ID the event concerns, -1 when none.
	WL int `json:"wl"`
	// Value is the event's numeric payload (see the Kind* docs).
	Value float64 `json:"value"`
	// Detail is an optional human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// WLNone marks an event that concerns no particular workload.
const WLNone = -1

// DefaultCapacity is the ring size selected by New(0).
const DefaultCapacity = 512

// Sink receives every recorded event (with Seq assigned) as it lands
// in the ring. Sinks are invoked synchronously under the recorder lock
// — delivery order matches Seq order — so they must be fast and must
// never call back into the recorder. The live event pipeline installs
// one that forwards onto the daemon's EventBus when someone is
// watching.
type Sink func(Event)

// Recorder is a bounded ring of Events. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so a dump can be
// taken while the run is still ticking.
type Recorder struct {
	mu   sync.Mutex
	buf  ring.Ring[Event]
	seq  uint64 // next sequence number
	sink Sink
}

// New returns a recorder retaining up to capacity events (<= 0 selects
// DefaultCapacity). Storage grows with the events recorded.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: ring.New[Event](capacity)}
}

// SetSink installs (or clears, with nil) the live forwarding sink.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Record appends an event, overwriting the oldest entry when the ring
// is full. The recorder assigns Seq.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	r.buf.Push(ev)
	sink := r.sink
	if sink != nil {
		sink(ev)
	}
	r.mu.Unlock()
}

// Len returns the number of retained events (0 on a nil receiver).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Len()
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Dropped()
}

// Events returns the retained events oldest-first. The slice is a
// snapshot owned by the caller; nil on a nil receiver.
func (r *Recorder) Events() []Event { return r.events(nil) }

// EventsAfter returns retained events with Seq > after, oldest-first —
// the cursor behind `GET .../flight?after=` so pollers fetch only what
// is new instead of the whole ring every time.
func (r *Recorder) EventsAfter(after uint64) []Event { return r.events(&after) }

func (r *Recorder) events(after *uint64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked(after)
}

// eventsLocked collects retained events oldest-first: all of them when
// after is nil, else those with Seq > *after. Callers hold r.mu.
func (r *Recorder) eventsLocked(after *uint64) []Event {
	out := make([]Event, 0, r.buf.Len())
	if after == nil {
		return r.buf.Append(out, nil)
	}
	return r.buf.Append(out, func(ev *Event) bool { return ev.Seq > *after })
}

// Dump is the JSON document served for one run's flight recorder.
type Dump struct {
	// Capacity is the ring size; Dropped counts overwritten events —
	// nonzero means Events is the tail of a longer history.
	Capacity int     `json:"capacity"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// Snapshot captures the recorder as a Dump. A nil receiver yields an
// empty dump with a non-nil Events slice.
func (r *Recorder) Snapshot() Dump { return r.snapshot(nil) }

// SnapshotAfter captures a Dump holding only events with Seq > after.
// Capacity and Dropped still describe the whole ring.
func (r *Recorder) SnapshotAfter(after uint64) Dump { return r.snapshot(&after) }

func (r *Recorder) snapshot(after *uint64) Dump {
	if r == nil {
		return Dump{Events: []Event{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Dump{
		Capacity: r.buf.Cap(),
		Dropped:  r.buf.Dropped(),
		Events:   r.eventsLocked(after),
	}
}

// WriteJSON renders the recorder's snapshot as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error { return writeDump(w, r.Snapshot()) }

// WriteJSONAfter renders SnapshotAfter(after) as indented JSON.
func (r *Recorder) WriteJSONAfter(w io.Writer, after uint64) error {
	return writeDump(w, r.SnapshotAfter(after))
}

func writeDump(w io.Writer, d Dump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
