package sim_test

import (
	"context"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/simtest"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// coldMTAT trains an agent the way NewPolicy did before the trained-agent
// cache: one instance, trained in place and then evaluated.
func coldMTAT(t *testing.T, variant core.Variant, scn sim.Scenario, episodes int) *core.MTAT {
	t.Helper()
	cfg, err := sim.MTATConfigFor(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(variant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainScn := scn
	trainScn.Load = loadgen.Fig7()
	trainScn.DurationSeconds = 0
	trainScn.TickSeconds = 0.25
	if err := sim.PretrainMTAT(m, trainScn, episodes); err != nil {
		t.Fatal(err)
	}
	m.ResetEpisode()
	return m
}

// TestTrainedAgentCacheIsExact checks that a cache-built MTAT policy, on
// the training call and on a later hit, runs byte-identically to one
// trained in place, and that training leaves the caller's sinks alone.
// The test is single-goroutine and trains two agents per variant, so
// under the race detector, which slows training about 15-fold, only
// mtat-full runs; the cache's concurrency is covered by the
// TestAgentCache tests.
func TestTrainedAgentCacheIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training in -short mode")
	}
	const episodes = 2 // the first SAC update lands in episode 2
	for i, tc := range []struct {
		name    string
		variant core.Variant
	}{{"mtat-full", core.VariantFull}, {"mtat-lconly", core.VariantLCOnly}} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.variant != core.VariantFull {
				t.Skip("one variant under the race detector")
			}
			// memcached, unlike redis, moves its partition at 1/16 scale,
			// so the result depends on the trained actor.
			spec := sim.RunSpec{LC: "memcached", BEs: []string{"sssp", "pr"}, Policy: tc.name,
				Scale: 16, Seed: int64(9100 + i), Episodes: episodes,
				Load: &sim.LoadSpec{Kind: "steps", Fracs: []float64{0.3, 0.9, 0.5}, StepSeconds: 10}}
			scn, err := spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			run := func(pol *core.MTAT) string {
				t.Helper()
				res, err := sim.RunScenario(scn, pol)
				if err != nil {
					t.Fatal(err)
				}
				return simtest.ResultFingerprint(res)
			}
			coldPol := coldMTAT(t, tc.variant, scn, episodes)
			if coldPol.PPM().Agent().TotalUpdates() == 0 {
				t.Fatal("training took no SAC update; the comparison would be vacuous")
			}
			cold := run(coldPol)

			// The sinks are not part of the key, and training must not
			// write to them: on a miss and a hit alike they stay empty.
			withSinks := scn
			withSinks.Flight = flight.New(64)
			withSinks.Telemetry = telemetry.New()
			sim.ForgetTrainedAgents() // the first call below must train
			hits0, misses0 := sim.AgentCacheStats()
			var built [2]*core.MTAT
			for k := range built {
				pol, err := sim.NewPolicy(context.Background(), tc.name, withSinks, episodes)
				if err != nil {
					t.Fatal(err)
				}
				built[k] = pol.(*core.MTAT)
			}
			if hits, misses := sim.AgentCacheStats(); hits-hits0 != 1 || misses-misses0 != 1 {
				t.Errorf("cache hits/misses moved by %d/%d, want 1/1", hits-hits0, misses-misses0)
			}
			if n, m := withSinks.Flight.Len(), withSinks.Telemetry.Tracer().Len(); n != 0 || m != 0 {
				t.Errorf("training wrote %d flight and %d trace events into the run's sinks", n, m)
			}
			if built[0] == built[1] {
				t.Fatal("two NewPolicy calls returned the same instance")
			}
			for k, m := range built {
				if got, want := m.PPM().Agent().TotalUpdates(), coldPol.PPM().Agent().TotalUpdates(); got != want {
					t.Errorf("cache-built instance %d reports %d SAC updates, cold-trained %d", k, got, want)
				}
				if got := run(m); got != cold {
					t.Errorf("cache-built instance %d fingerprint %s, cold-trained %s", k, got, cold)
				}
			}
		})
	}
}
