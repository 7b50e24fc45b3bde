package rl

import (
	"math/rand"
	"testing"
)

func TestNewReplayValidation(t *testing.T) {
	if _, err := NewReplay(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestReplayRingBuffer(t *testing.T) {
	r, err := NewReplay(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("empty Len = %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{State: []float64{float64(i)}, NextState: []float64{0}, Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len after overflow = %d, want 3", r.Len())
	}
	// The oldest two (rewards 0, 1) must be gone.
	rng := rand.New(rand.NewSource(1))
	batch, err := r.Sample(rng, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range batch {
		if tr.Reward < 2 {
			t.Fatalf("sampled evicted transition with reward %g", tr.Reward)
		}
	}
}

func TestReplayCopiesState(t *testing.T) {
	r, _ := NewReplay(2)
	st := []float64{1}
	r.Add(Transition{State: st, NextState: st})
	st[0] = 99
	rng := rand.New(rand.NewSource(1))
	batch, _ := r.Sample(rng, 1, nil)
	if batch[0].State[0] != 1 {
		t.Error("replay aliased caller state slice")
	}
}

func TestReplaySampleValidation(t *testing.T) {
	r, _ := NewReplay(2)
	rng := rand.New(rand.NewSource(1))
	if _, err := r.Sample(rng, 1, nil); err == nil {
		t.Error("sampling empty buffer succeeded")
	}
	r.Add(Transition{State: []float64{0}, NextState: []float64{0}})
	if _, err := r.Sample(rng, 0, nil); err == nil {
		t.Error("zero sample size accepted")
	}
}

func TestSACConfigValidate(t *testing.T) {
	base := DefaultSACConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*SACConfig)
	}{
		{"zero state dim", func(c *SACConfig) { c.StateDim = 0 }},
		{"zero hidden", func(c *SACConfig) { c.Hidden = 0 }},
		{"gamma 1", func(c *SACConfig) { c.Gamma = 1 }},
		{"zero tau", func(c *SACConfig) { c.Tau = 0 }},
		{"zero lr", func(c *SACConfig) { c.LR = 0 }},
		{"zero alpha manual", func(c *SACConfig) { c.AutoAlpha = false; c.Alpha = 0 }},
		{"zero batch", func(c *SACConfig) { c.BatchSize = 0 }},
		{"zero update every", func(c *SACConfig) { c.UpdateEvery = 0 }},
		{"zero updates per round", func(c *SACConfig) { c.UpdatesPerRound = 0 }},
		{"replay smaller than batch", func(c *SACConfig) { c.ReplayCapacity = c.BatchSize - 1 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestSelectActionBounds(t *testing.T) {
	cfg := DefaultSACConfig()
	agent, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.5, 0.5, 0.5}
	for i := 0; i < 100; i++ {
		a, err := agent.SelectAction(state, false)
		if err != nil {
			t.Fatal(err)
		}
		if a < -1 || a > 1 {
			t.Fatalf("action %g outside [-1,1]", a)
		}
	}
	d1, _ := agent.SelectAction(state, true)
	d2, _ := agent.SelectAction(state, true)
	if d1 != d2 {
		t.Error("deterministic action not deterministic")
	}
	if _, err := agent.SelectAction([]float64{1}, false); err == nil {
		t.Error("wrong state dim accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	agent, _ := NewSAC(DefaultSACConfig())
	ok := Transition{State: []float64{0, 0, 0}, NextState: []float64{0, 0, 0}, Action: 0.5}
	if err := agent.Observe(ok); err != nil {
		t.Fatalf("valid transition rejected: %v", err)
	}
	bad := ok
	bad.State = []float64{0}
	if err := agent.Observe(bad); err == nil {
		t.Error("wrong state dim accepted")
	}
	bad = ok
	bad.Action = 1.5
	if err := agent.Observe(bad); err == nil {
		t.Error("out-of-range action accepted")
	}
}

func TestForceUpdateNeedsData(t *testing.T) {
	agent, _ := NewSAC(DefaultSACConfig())
	if err := agent.ForceUpdate(1); err == nil {
		t.Error("ForceUpdate on empty replay succeeded")
	}
}

// toyEnv is a 1-D control problem shaped like MTAT's allocation task: the
// state x in [0,1] is the "FMem share", the action moves it, the reward is
// 1-x when x is above the (load-dependent) requirement and -1 otherwise —
// a direct miniature of Eq. 2.
type toyEnv struct {
	x    float64
	need float64
}

func (e *toyEnv) state() []float64 { return []float64{e.x, e.need, 0} }

func (e *toyEnv) step(action float64) (reward float64) {
	e.x += 0.2 * action
	if e.x < 0 {
		e.x = 0
	}
	if e.x > 1 {
		e.x = 1
	}
	if e.x >= e.need {
		return 1 - e.x
	}
	return -1
}

// TestSACLearnsToyAllocation trains SAC on the toy environment and checks
// that the learned deterministic policy meets the requirement with a small
// margin — i.e. it learned "allocate just enough", the heart of §3.2.1.
func TestSACLearnsToyAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping RL training in -short mode")
	}
	cfg := DefaultSACConfig()
	cfg.Seed = 11
	cfg.UpdateEvery = 50
	cfg.UpdatesPerRound = 30
	agent, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	envRng := rand.New(rand.NewSource(5))
	env := &toyEnv{x: 0.5, need: 0.4}

	var rewardEarly, rewardLate float64
	const episodes = 60
	const steps = 50
	for ep := 0; ep < episodes; ep++ {
		env.x = envRng.Float64()
		env.need = 0.2 + 0.6*envRng.Float64()
		var epReward float64
		for st := 0; st < steps; st++ {
			s := env.state()
			a, err := agent.SelectAction(s, false)
			if err != nil {
				t.Fatal(err)
			}
			r := env.step(a)
			epReward += r
			if err := agent.Observe(Transition{
				State: s, Action: a, Reward: r, NextState: env.state(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if ep < 10 {
			rewardEarly += epReward
		}
		if ep >= episodes-10 {
			rewardLate += epReward
		}
	}
	if agent.TotalUpdates() == 0 {
		t.Fatal("no gradient updates ran")
	}
	if rewardLate <= rewardEarly {
		t.Errorf("reward did not improve: early %g, late %g", rewardEarly, rewardLate)
	}

	// Evaluate the deterministic policy: from a fresh start it should
	// settle at or above the requirement without hugging 1.0.
	env.x = 0.1
	env.need = 0.5
	for st := 0; st < 30; st++ {
		a, _ := agent.SelectAction(env.state(), true)
		env.step(a)
	}
	if env.x < env.need-0.05 {
		t.Errorf("policy settled at x=%g, below requirement %g", env.x, env.need)
	}
	if env.x > 0.98 {
		t.Errorf("policy wastes allocation: settled at x=%g for requirement %g", env.x, env.need)
	}
}

func TestSACDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := DefaultSACConfig()
		cfg.Seed = 99
		agent, err := NewSAC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		envRng := rand.New(rand.NewSource(7))
		env := &toyEnv{x: 0.5, need: 0.4}
		var total float64
		for i := 0; i < 200; i++ {
			s := env.state()
			a, err := agent.SelectAction(s, false)
			if err != nil {
				t.Fatal(err)
			}
			r := env.step(a)
			total += r
			if err := agent.Observe(Transition{State: s, Action: a, Reward: r, NextState: env.state()}); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				env.x = envRng.Float64()
			}
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed SAC runs differ: %g vs %g", a, b)
	}
}

func TestAutoAlphaStaysBounded(t *testing.T) {
	cfg := DefaultSACConfig()
	cfg.AutoAlpha = true
	agent, _ := NewSAC(cfg)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		a, _ := agent.SelectAction(s, false)
		if err := agent.Observe(Transition{
			State: s, Action: a, Reward: rng.Float64()*2 - 1,
			NextState: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	al := agent.Alpha()
	if al < 1e-3-1e-12 || al > 2+1e-12 {
		t.Errorf("alpha %g escaped clamp [1e-3, 2]", al)
	}
}

func TestSACSerializationRoundTrip(t *testing.T) {
	cfg := DefaultSACConfig()
	cfg.Seed = 21
	a, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the agent with some training so weights are nontrivial.
	for i := 0; i < 120; i++ {
		s := []float64{float64(i%10) / 10, 0.5, 0.2}
		act, _ := a.SelectAction(s, false)
		if err := a.Observe(Transition{State: s, Action: act, Reward: 0.5, NextState: s}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(data); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.3, 0.6, 0.9}
	av, _ := a.SelectAction(state, true)
	bv, _ := b.SelectAction(state, true)
	if av != bv {
		t.Errorf("restored policy differs: %g vs %g", av, bv)
	}
	qa, _ := a.QValue(state, 0.5)
	qb, _ := b.QValue(state, 0.5)
	if qa != qb {
		t.Errorf("restored critic differs: %g vs %g", qa, qb)
	}
	if a.Alpha() != b.Alpha() {
		t.Errorf("restored alpha differs: %g vs %g", a.Alpha(), b.Alpha())
	}
	// Architecture mismatch is rejected.
	small := cfg
	small.Hidden = 8
	c, _ := NewSAC(small)
	if err := c.LoadWeights(data); err == nil {
		t.Error("mismatched architecture accepted")
	}
	if err := b.LoadWeights([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestSACSnapshotRestore(t *testing.T) {
	cfg := DefaultSACConfig()
	cfg.Seed = 22
	a, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := func(n int) {
		for i := 0; i < n; i++ {
			s := []float64{float64(i%10) / 10, 0.5, 0.2}
			act, _ := a.SelectAction(s, false)
			if err := a.Observe(Transition{State: s, Action: act, Reward: 0.5, NextState: s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	train(120)
	snap := a.Snapshot()
	state := []float64{0.3, 0.6, 0.9}
	want, _ := a.SelectAction(state, true)
	wantQ, _ := a.QValue(state, 0.5)
	train(120) // later training must not reach the snapshot

	b, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.SelectAction(state, true); got != want {
		t.Errorf("restored policy %g, snapshot-time policy %g", got, want)
	}
	if got, _ := b.QValue(state, 0.5); got != wantQ {
		t.Errorf("restored critic %g, snapshot-time critic %g", got, wantQ)
	}
	if snap.Updates == 0 || b.TotalUpdates() != snap.Updates {
		t.Errorf("restored agent reports %d updates, snapshot %d", b.TotalUpdates(), snap.Updates)
	}
	if err := b.Restore(Weights{}); err == nil {
		t.Error("restoring empty weights succeeded")
	}
}
