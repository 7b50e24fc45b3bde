package telemetry

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/flight"
)

// TestBoundedBuffersAllocateOnDemand checks that a bound is not a
// preallocation: a buffer sized for a long run costs almost nothing
// until events arrive. The daemon builds a tracer and a span store for
// every run it retains, most of which see a handful of events.
func TestBoundedBuffersAllocateOnDemand(t *testing.T) {
	const limit = 64 << 10
	for _, tc := range []struct {
		name  string
		build func() any
	}{
		{"NewTracer(1<<16)", func() any { return NewTracer(1 << 16) }},
		{`NewSpanStore("", 0)`, func() any { return NewSpanStore("", 0) }},
		{"flight.New(0)", func() any { return flight.New(0) }},
		{"NewHistogram(0)", func() any { return NewHistogram(0) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v := tc.build()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(v)
		if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
			t.Errorf("%s allocated %d bytes before any event, want < %d", tc.name, n, limit)
		}
	}
}

// TestTracerGrowsToFewEvents checks that a large tracer holding a few
// events stays small, and still reports them all in order.
func TestTracerGrowsToFewEvents(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracer(1 << 16)
	for i := 0; i < 7; i++ {
		tr.Emit(float64(i), EvRunStart, WLNone)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("7 events in a 1<<16 tracer allocated %d bytes", n)
	}
	evs := tr.Events()
	if len(evs) != 7 || tr.Dropped() != 0 {
		t.Fatalf("len %d dropped %d, want 7 and 0", len(evs), tr.Dropped())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestBusFirehoseReplayAtDefaultCaps fills every topic ring at the
// default caps, publishing round-robin so the rings' concatenation is
// far from ID order, and checks that a firehose subscription replays
// all of it, in order, without holding the bus lock for long.
func TestBusFirehoseReplayAtDefaultCaps(t *testing.T) {
	b := NewEventBus(BusConfig{})
	topics := make([]string, DefaultBusMaxTopics)
	for i := range topics {
		topics[i] = fmt.Sprintf("run/r%06d", i)
		b.Subscribe(topics[i], 0, nil).Close()
	}
	for i := 0; i < DefaultBusRingCapacity; i++ {
		for _, topic := range topics {
			b.Publish(BusEvent{Topic: topic, Kind: EvBusFlight})
		}
	}
	start := time.Now()
	s := b.Subscribe("", 0, nil)
	elapsed := time.Since(start)
	defer s.Close()
	if s.Gap() != 0 {
		t.Fatalf("gap = %d, want 0", s.Gap())
	}
	var n int
	var last uint64
	for {
		ev, ok := s.TryNext()
		if !ok {
			break
		}
		if ev.ID <= last {
			t.Fatalf("event %d: ID %d after %d, want strictly increasing", n, ev.ID, last)
		}
		last = ev.ID
		n++
	}
	if want := DefaultBusMaxTopics * DefaultBusRingCapacity; n != want {
		t.Fatalf("replayed %d events, want %d", n, want)
	}
	if s.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d replayed events", s.Dropped())
	}
	if elapsed > 10*time.Second {
		t.Fatalf("firehose subscribe took %v with the bus locked, want < 10s", elapsed)
	}
}
