package rl

import (
	"math"
	"testing"
)

// TestSACFindsSingleStateOptimum is the SAC sanity check on an MDP with
// a known optimum: one state, reward -|a|, so the best action is 0.
// After training, Q must peak at 0 and fall off monotonically toward
// both extremes with a clear gap, and the policy must sit near 0. Both
// the critic (Q shape) and the actor (mean and deterministic action)
// are checked, so a regression in either shows here.
func TestSACFindsSingleStateOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping RL training in -short mode")
	}
	cfg := DefaultSACConfig()
	cfg.Seed = 2
	agent, err := NewSAC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := []float64{0.5, 0.5, 0.5}
	for i := 0; i < 3000; i++ {
		a, err := agent.SelectAction(st, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Observe(Transition{State: st, Action: a, Reward: -math.Abs(a), NextState: st}); err != nil {
			t.Fatal(err)
		}
	}

	actions := []float64{-1, -0.5, 0, 0.5, 1}
	q := make([]float64, len(actions))
	for i, a := range actions {
		if q[i], err = agent.QValue(st, a); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("Q(-1, -.5, 0, .5, 1) = %.3f", q)
	// Q rises from -1 to the peak at 0, then falls to +1.
	for i := 0; i < 2; i++ {
		if !(q[i] < q[i+1]) {
			t.Errorf("Q(%+.1f) = %.3f not below Q(%+.1f) = %.3f", actions[i], q[i], actions[i+1], q[i+1])
		}
	}
	for i := 2; i < 4; i++ {
		if !(q[i] > q[i+1]) {
			t.Errorf("Q(%+.1f) = %.3f not above Q(%+.1f) = %.3f", actions[i], q[i], actions[i+1], q[i+1])
		}
	}
	for _, end := range []int{0, 4} {
		if gap := q[2] - q[end]; gap < 0.5 {
			t.Errorf("Q(0) - Q(%+.1f) = %.3f, want >= 0.5", actions[end], gap)
		}
	}

	mean, _, err := agent.PolicyParams(st)
	if err != nil {
		t.Fatal(err)
	}
	det, err := agent.SelectAction(st, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean = %+.3f, deterministic action = %+.3f", mean, det)
	if math.Abs(mean) >= 0.1 {
		t.Errorf("policy mean = %+.3f, want |mean| < 0.1", mean)
	}
	if math.Abs(det) >= 0.1 {
		t.Errorf("deterministic action = %+.3f, want |a| < 0.1", det)
	}
}
