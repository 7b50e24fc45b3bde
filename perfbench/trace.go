package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/policy"
)

// timedPolicy embeds the real policy and times only Init and Tick; every
// other method (Name, LCStall) is the embedded policy's own, so a run
// under the wrapper is the same run as under the bare policy.
type timedPolicy struct {
	policy.Policy
	initDur   time.Duration
	tickDur   time.Duration
	ticks     int64
	firstTick time.Time
	lastTick  time.Time
}

func (p *timedPolicy) Init(ctx *policy.Context) error {
	start := time.Now()
	err := p.Policy.Init(ctx)
	p.initDur += time.Since(start)
	return err
}

func (p *timedPolicy) Tick(ctx *policy.Context) error {
	start := time.Now()
	err := p.Policy.Tick(ctx)
	end := time.Now()
	if p.ticks == 0 {
		p.firstTick = start
	}
	p.lastTick = end
	p.ticks++
	p.tickDur += end.Sub(start)
	return err
}

// span is one traced interval. Spans of one cell share Trace; Parent is
// the ID of the enclosing span (0 for a root). Aggregated spans
// (policy.tick) cover first start to last end and carry the summed busy
// time and call count in Attrs.
type span struct {
	Trace  string           `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  time.Time        `json:"start"`
	End    time.Time        `json:"end"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; write dumps them as JSONL at exit. A nil
// *tracer records nothing, which is how the untraced run stays untraced.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// add records a span and returns its ID.
func (t *tracer) add(trace string, parent int64, name string, start, end time.Time, attrs map[string]int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Trace: trace, ID: t.next, Parent: parent, Name: name,
		Start: start, End: end, Attrs: attrs})
	return t.next
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
