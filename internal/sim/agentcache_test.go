package sim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/rl"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// bumped is a load pattern equal to its base except at one instant.
type bumped struct {
	loadgen.Pattern
	at float64
}

func (b bumped) Frac(t float64) float64 {
	if t == b.at {
		return b.Pattern.Frac(t) + 1e-9
	}
	return b.Pattern.Frac(t)
}

func TestAgentKeySensitivity(t *testing.T) {
	base := RunSpec{LC: "redis", BEs: []string{"sssp", "pr"}, Scale: 16, Seed: 3,
		Policy: "mtat-full", Episodes: 2}
	keyOf := func(t *testing.T, spec RunSpec, mutScn func(*Scenario), mutAgent func(*AgentSpec)) agentKey {
		t.Helper()
		scn, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if mutScn != nil {
			mutScn(&scn)
		}
		as, err := mtatAgentSpec(spec.PolicyName(), scn, spec.Episodes)
		if err != nil {
			t.Fatal(err)
		}
		if mutAgent != nil {
			mutAgent(&as)
		}
		return as.key()
	}
	want := keyOf(t, base, nil, nil)
	cases := []struct {
		name     string
		changes  bool
		spec     func(*RunSpec)
		scenario func(*Scenario)
		agent    func(*AgentSpec)
	}{
		{name: "variant", changes: true, spec: func(s *RunSpec) { s.Policy = "mtat-lconly" }},
		{name: "episodes", changes: true, spec: func(s *RunSpec) { s.Episodes = 3 }},
		{name: "seed", changes: true, spec: func(s *RunSpec) { s.Seed = 4 }},
		{name: "scale", changes: true, spec: func(s *RunSpec) { s.Scale = 8 }},
		{name: "BE set", changes: true, spec: func(s *RunSpec) { s.BEs = []string{"sssp", "bfs"} }},
		{name: "SLO scale", changes: true, spec: func(s *RunSpec) { s.SLOScale = 2 }},
		{name: "training tick", changes: true, agent: func(a *AgentSpec) { a.Scenario.TickSeconds = 0.5 }},
		{name: "reference core", changes: true, scenario: func(s *Scenario) { s.ReferenceCore = true }},
		{name: "load at one training tick", changes: true, agent: func(a *AgentSpec) {
			a.Scenario.Load = bumped{Pattern: a.Scenario.Load, at: 100 * a.Scenario.TickSeconds}
		}},
		{name: "evaluated load", spec: func(s *RunSpec) { s.Load = &LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 30} }},
		{name: "evaluated duration", spec: func(s *RunSpec) { s.DurationSeconds = 30 }},
		{name: "telemetry", scenario: func(s *Scenario) { s.Telemetry = telemetry.New() }},
		{name: "flight", scenario: func(s *Scenario) { s.Flight = flight.New(16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			if tc.spec != nil {
				tc.spec(&spec)
			}
			got := keyOf(t, spec, tc.scenario, tc.agent)
			if changed := got != want; changed != tc.changes {
				t.Errorf("key changed = %v, want %v", changed, tc.changes)
			}
		})
	}
}

// testWeights returns a distinguishable, network-free Weights value.
func testWeights(tag float64) rl.Weights { return rl.Weights{LogAlpha: tag} }

func TestAgentCacheSingleFlight(t *testing.T) {
	c := newAgentCache(4)
	release := make(chan struct{})
	var (
		mu    sync.Mutex
		calls int
	)
	train := func() (rl.Weights, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return testWeights(7), nil
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w, err := c.get(context.Background(), agentKey{1}, train)
			if err == nil && w.LogAlpha != 7 {
				err = errors.New("wrong weights")
			}
			errs <- err
		}()
	}
	close(start)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 || c.misses != 1 || c.hits != 7 {
		t.Errorf("calls=%d misses=%d hits=%d, want 1/1/7", calls, c.misses, c.hits)
	}
}

func TestAgentCacheCancelledLeaderHandsOver(t *testing.T) {
	c := newAgentCache(4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	trainStarted := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.get(leaderCtx, agentKey{2}, func() (rl.Weights, error) {
			close(trainStarted)
			<-leaderCtx.Done()
			return rl.Weights{}, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-trainStarted

	waiterDone := make(chan struct{})
	var w rl.Weights
	var werr error
	waiterTrained := false
	go func() {
		defer close(waiterDone)
		w, werr = c.get(context.Background(), agentKey{2}, func() (rl.Weights, error) {
			waiterTrained = true
			return testWeights(9), nil
		})
	}()
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	<-waiterDone
	if werr != nil || w.LogAlpha != 9 || !waiterTrained {
		t.Fatalf("waiter: weights %v, err %v, trained %v; want its own training to succeed",
			w.LogAlpha, werr, waiterTrained)
	}
	if c.misses != 2 {
		t.Errorf("misses = %d, want 2 (the cancelled leader and the waiter)", c.misses)
	}
}

func TestAgentCacheDoneContextFailsOnWarmKey(t *testing.T) {
	c := newAgentCache(4)
	train := func() (rl.Weights, error) { return testWeights(1), nil }
	if _, err := c.get(context.Background(), agentKey{3}, train); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.get(ctx, agentKey{3}, train); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.hits != 0 {
		t.Errorf("hits = %d, want 0", c.hits)
	}
}

func TestAgentCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newAgentCache(2)
	trained := map[agentKey]int{}
	get := func(k byte) {
		t.Helper()
		key := agentKey{k}
		if _, err := c.get(context.Background(), key, func() (rl.Weights, error) {
			trained[key]++
			return testWeights(float64(k)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // 2 is now the oldest
	get(3) // evicts 2
	if len(c.entries) != 2 || c.lru.Len() != 2 {
		t.Fatalf("cache holds %d entries (%d in LRU), want 2", len(c.entries), c.lru.Len())
	}
	get(1)
	get(3)
	if trained[agentKey{1}] != 1 || trained[agentKey{3}] != 1 {
		t.Errorf("kept keys retrained: %v", trained)
	}
	get(2)
	if trained[agentKey{2}] != 2 {
		t.Errorf("evicted key trained %d times, want 2", trained[agentKey{2}])
	}
}

func TestAgentCachePanickingTrainingIsDropped(t *testing.T) {
	c := newAgentCache(2)
	func() {
		defer func() { _ = recover() }()
		_, _ = c.get(context.Background(), agentKey{4}, func() (rl.Weights, error) { panic("boom") })
	}()
	if _, ok := c.entries[agentKey{4}]; ok {
		t.Fatal("a panicked training left its entry behind")
	}
	if _, err := c.get(context.Background(), agentKey{4}, func() (rl.Weights, error) {
		return testWeights(4), nil
	}); err != nil {
		t.Fatal(err)
	}
}
