package sim

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/rl"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// agentCacheCap bounds the trained-agent cache. An entry holds the five
// SAC networks, about 180 KB at the default width, so a full cache is
// about 6 MB.
const agentCacheCap = 32

// agents is the process-wide trained-agent cache behind TrainedMTAT.
var agents = newAgentCache(agentCacheCap)

// AgentSpec is one MTAT pretraining run: what TrainedMTAT trains and what
// its cache is keyed by.
type AgentSpec struct {
	Variant core.Variant
	Config  core.PPMConfig
	// Scenario is the training scenario. Its Telemetry and Flight are
	// ignored: training never writes to a run's sinks.
	Scenario Scenario
	Episodes int
}

// TrainedMTAT returns a fresh, evaluation-mode MTAT policy whose agent was
// pretrained as spec describes. While the spec's agent stays among the
// agentCacheCap most recently used, it is trained once per process: later
// calls, and calls that arrive while the training runs, copy the trained
// weights into a new instance. Every caller gets an instance built the
// same way (MTATFromWeights), so a hit and a miss run byte-identically and
// no two callers share mutable state.
//
// ctx cancels training between ticks and a caller's wait for another
// caller's training; a done ctx fails the call even when the agent is
// cached. If the training caller fails or is cancelled, a waiting caller
// trains instead. onTrain, if non-nil, is called just before this call
// starts training.
func TrainedMTAT(ctx context.Context, spec AgentSpec, onTrain func()) (*core.MTAT, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec.Scenario.Telemetry, spec.Scenario.Flight = nil, nil
	w, err := agents.get(ctx, spec.key(), func() (rl.Weights, error) {
		if onTrain != nil {
			onTrain()
		}
		m, err := core.New(spec.Variant, spec.Config)
		if err != nil {
			return rl.Weights{}, err
		}
		if err := PretrainMTATContext(ctx, m, spec.Scenario, spec.Episodes); err != nil {
			return rl.Weights{}, err
		}
		return m.PPM().Agent().Snapshot(), nil
	})
	if err != nil {
		return nil, err
	}
	return MTATFromWeights(spec.Variant, spec.Config, w)
}

// MTATFromWeights returns a fresh, evaluation-mode MTAT policy whose agent
// holds w, ready for a run: core.New, the weights copied in, eval mode, a
// fresh episode. It is how every trained MTAT policy is built, whether its
// weights come from the trained-agent cache or from a saved agent; w
// itself is only read.
func MTATFromWeights(variant core.Variant, cfg core.PPMConfig, w rl.Weights) (*core.MTAT, error) {
	m, err := core.New(variant, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.PPM().Agent().Restore(w); err != nil {
		return nil, err
	}
	m.SetEvalMode(true)
	m.ResetEpisode()
	return m, nil
}

// AgentCacheStats returns the trained-agent cache's lookups since the
// process started. A hit is a call served trained weights, including a
// call that waited for another call's training; a miss is a call that
// started training.
func AgentCacheStats() (hits, misses int64) {
	agents.mu.Lock()
	defer agents.mu.Unlock()
	return agents.hits, agents.misses
}

// PublishAgentCache raises t's agent-cache counters to the process-wide
// totals of AgentCacheStats. It is a no-op without a sink.
func PublishAgentCache(t *telemetry.Telemetry) {
	hits, misses := AgentCacheStats()
	reg := t.Metrics()
	reg.Counter(telemetry.MetricSimAgentCacheHits).RaiseTo(hits)
	reg.Counter(telemetry.MetricSimAgentCacheMisses).RaiseTo(misses)
}

// agentKey is the SHA-256 of everything pretraining reads.
type agentKey [sha256.Size]byte

// key hashes the variant, the full PPM configuration, the episode count
// and the training scenario as the runner sees it: every field after
// withDefaults except the sinks and the load pattern. The pattern is an
// interface, so it is keyed by what the runner reads from it, the
// fraction at every training tick.
func (s AgentSpec) key() agentKey {
	scn := s.Scenario.withDefaults()
	load := scn.Load
	scn.Load, scn.Telemetry, scn.Flight = nil, nil, nil
	h := sha256.New()
	// The hashed types are plain values without pointers, maps or funcs,
	// so %#v spells out every field, floats in their shortest exact form.
	fmt.Fprintf(h, "%d\n%d\n%#v\n%#v\n", s.Variant, s.Episodes, s.Config, scn)
	ticks := int(math.Round(scn.DurationSeconds / scn.TickSeconds))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ticks))
	h.Write(buf[:])
	for i := 0; load != nil && i < ticks; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(load.Frac(float64(i)*scn.TickSeconds)))
		h.Write(buf[:])
	}
	var k agentKey
	h.Sum(k[:0])
	return k
}

// agentCache is a bounded LRU of trained weights with single-flight
// training per key.
type agentCache struct {
	cap int

	mu      sync.Mutex
	entries map[agentKey]*agentEntry
	lru     *list.List // keys of trained entries, most recently used first
	hits    int64
	misses  int64
}

// agentEntry is one key's training, in flight or done.
type agentEntry struct {
	ready   chan struct{} // closed when the training ends, either way
	weights rl.Weights    // read-only once elem is set
	elem    *list.Element // the entry's place in lru; nil while training
}

func newAgentCache(capacity int) *agentCache {
	return &agentCache{cap: capacity, entries: make(map[agentKey]*agentEntry), lru: list.New()}
}

// get returns key's weights, calling train to produce them if no other
// caller has them or is producing them. A caller finding the key in
// flight waits for it under its own ctx; if that training fails, the
// entry is dropped and the waiter loops to train itself.
func (c *agentCache) get(ctx context.Context, key agentKey, train func() (rl.Weights, error)) (rl.Weights, error) {
	for {
		if err := ctx.Err(); err != nil {
			return rl.Weights{}, err
		}
		c.mu.Lock()
		e, ok := c.entries[key]
		switch {
		case ok && e.elem != nil:
			c.lru.MoveToFront(e.elem)
			c.hits++
			c.mu.Unlock()
			return e.weights, nil
		case !ok:
			e = &agentEntry{ready: make(chan struct{})}
			c.entries[key] = e
			c.misses++
			c.mu.Unlock()
			return c.lead(key, e, train)
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return rl.Weights{}, ctx.Err()
		}
	}
}

// lead runs key's training and settles its entry: cached and evicting
// the least recently used beyond the cap on success, dropped on an error
// or a panic. Either way the entry's waiters are released.
func (c *agentCache) lead(key agentKey, e *agentEntry, train func() (rl.Weights, error)) (w rl.Weights, err error) {
	trained := false
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		defer close(e.ready)
		if !trained {
			delete(c.entries, key)
			return
		}
		e.weights = w
		e.elem = c.lru.PushFront(key)
		for c.lru.Len() > c.cap {
			delete(c.entries, c.lru.Remove(c.lru.Back()).(agentKey))
		}
	}()
	w, err = train()
	trained = err == nil
	return w, err
}
