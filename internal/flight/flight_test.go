package flight

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindPromotion}) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil recorder reported state: len=%d dropped=%d", r.Len(), r.Dropped())
	}
	if r.Events() != nil {
		t.Fatalf("nil recorder returned events")
	}
	d := r.Snapshot()
	if d.Events == nil || len(d.Events) != 0 {
		t.Fatalf("nil recorder snapshot want empty non-nil events, got %#v", d.Events)
	}
}

func TestRecordOrderAndSeq(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{T: float64(i), Kind: KindPromotion, WL: WLNone, Value: float64(i)})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.T != float64(i) {
			t.Fatalf("event %d = %+v, want seq/t %d", i, ev, i)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{T: float64(i), Kind: KindDemotion})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		want := uint64(6 + i)
		if ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := New(0)
	if got := r.buf.Cap(); got != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New(4)
	r.Record(Event{T: 1.5, Kind: KindSLOViolation, WL: 0, Value: 0.25, Detail: "p99"})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if d.Capacity != 4 || d.Dropped != 0 || len(d.Events) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	if ev := d.Events[0]; ev.Kind != KindSLOViolation || ev.Value != 0.25 || ev.Detail != "p99" {
		t.Fatalf("event = %+v", ev)
	}
}

// TestConcurrentRecordAndDump exercises the live-dump path: readers
// snapshot while writers record. Run with -race.
func TestConcurrentRecordAndDump(t *testing.T) {
	r := New(64)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: KindPromotion, Value: 1})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Events()
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	total := uint64(r.Len()) + r.Dropped()
	if total != writers*perWriter {
		t.Fatalf("len+dropped = %d, want %d", total, writers*perWriter)
	}
	// Sequence numbers must be unique and dense over the retained tail.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-dense seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestEventsAfterCursor(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ { // seqs 0..4
		r.Record(Event{T: float64(i), Kind: KindPromotion, WL: WLNone})
	}
	// Cursor at seq 2: only 3 and 4 are newer.
	evs := r.EventsAfter(2)
	if len(evs) != 2 || evs[0].Seq != 3 || evs[1].Seq != 4 {
		t.Fatalf("EventsAfter(2) = %+v, want seqs 3,4", evs)
	}
	if evs := r.EventsAfter(4); len(evs) != 0 {
		t.Fatalf("EventsAfter(newest) = %+v, want empty", evs)
	}
	// Seq starts at 0, so Events must include the first event while
	// EventsAfter(0) must not.
	if len(r.Events()) != 5 {
		t.Fatalf("Events() = %d events, want 5", len(r.Events()))
	}
	if evs := r.EventsAfter(0); len(evs) != 4 || evs[0].Seq != 1 {
		t.Fatalf("EventsAfter(0) = %+v, want seqs 1..4", evs)
	}

	d := r.SnapshotAfter(2)
	if len(d.Events) != 2 || d.Capacity != 8 || d.Dropped != 0 {
		t.Fatalf("SnapshotAfter(2) = %+v", d)
	}

	var nilRec *Recorder
	if nilRec.EventsAfter(0) != nil {
		t.Fatal("nil recorder EventsAfter returned events")
	}
}

func TestSinkSeesEveryEventInOrder(t *testing.T) {
	r := New(4) // smaller than the event count: sink must outlive drops
	var got []uint64
	r.SetSink(func(ev Event) { got = append(got, ev.Seq) })
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindPromotion, WL: WLNone})
	}
	if len(got) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("sink out of order at %d: %v", i, got)
		}
	}
	// Detach: no further deliveries.
	r.SetSink(nil)
	r.Record(Event{Kind: KindPromotion, WL: WLNone})
	if len(got) != 10 {
		t.Fatal("sink called after detach")
	}
	var nilRec *Recorder
	nilRec.SetSink(func(Event) {}) // must not panic
}
