package rl

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tieredmem/mtat/internal/nn"
)

// Log-standard-deviation clamp bounds for the Gaussian policy, standard
// SAC practice to keep the policy's entropy finite and gradients stable.
const (
	logStdMin = -5.0
	logStdMax = 2.0
	// tanhEps keeps the tanh-squash log-density correction finite.
	tanhEps = 1e-6
	// meanReg is the L2 regularization coefficient on the pre-squash
	// policy mean and log-std (as in the original SAC reference code);
	// it prevents the mean from running deep into tanh saturation where
	// pathwise gradients vanish and the policy freezes.
	meanReg = 3e-3
)

// SACConfig configures a Soft Actor-Critic agent with a scalar action in
// [-1, 1].
type SACConfig struct {
	// StateDim is the observation dimension (3 for MTAT's state: FMem
	// usage ratio, FMem access ratio, normalized access count).
	StateDim int
	// Hidden is the hidden layer width of all networks (two hidden
	// layers each).
	Hidden int
	// Gamma is the discount factor.
	Gamma float64
	// Tau is the Polyak averaging rate for target critics.
	Tau float64
	// LR is the Adam learning rate for all networks.
	LR float64
	// Alpha is the entropy temperature. Ignored when AutoAlpha is set.
	Alpha float64
	// AutoAlpha enables automatic temperature tuning toward the target
	// entropy of -1 (the negative action dimension).
	AutoAlpha bool
	// BatchSize is the minibatch size per gradient step.
	BatchSize int
	// UpdateEvery triggers a training round after this many observed
	// transitions (the paper uses 50, §3.2.1/§4).
	UpdateEvery int
	// UpdatesPerRound is the number of gradient steps per training round.
	UpdatesPerRound int
	// ReplayCapacity bounds the replay buffer.
	ReplayCapacity int
	// ExploreEps is the probability that a stochastic SelectAction
	// returns a uniform random action instead of a policy sample. The
	// floor keeps rare actions (e.g. shrinking) represented in the
	// replay buffer even after the policy concentrates, preventing the
	// critic from extrapolating unchecked in unvisited action regions.
	ExploreEps float64
	// Seed seeds all of the agent's randomness.
	Seed int64
}

// DefaultSACConfig returns the configuration used by MTAT's PP-M.
func DefaultSACConfig() SACConfig {
	return SACConfig{
		StateDim:        3,
		Hidden:          64,
		Gamma:           0.8,
		Tau:             0.01,
		LR:              3e-4,
		Alpha:           0.2,
		AutoAlpha:       true,
		BatchSize:       64,
		UpdateEvery:     50,
		UpdatesPerRound: 50,
		ReplayCapacity:  20000,
		ExploreEps:      0.2,
		Seed:            1,
	}
}

// Validate reports whether the configuration is usable.
func (c SACConfig) Validate() error {
	if c.StateDim <= 0 {
		return fmt.Errorf("rl: StateDim must be > 0, got %d", c.StateDim)
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("rl: Hidden must be > 0, got %d", c.Hidden)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("rl: Gamma must be in [0,1), got %g", c.Gamma)
	}
	if c.Tau <= 0 || c.Tau > 1 {
		return fmt.Errorf("rl: Tau must be in (0,1], got %g", c.Tau)
	}
	if c.LR <= 0 {
		return fmt.Errorf("rl: LR must be > 0, got %g", c.LR)
	}
	if !c.AutoAlpha && c.Alpha <= 0 {
		return fmt.Errorf("rl: Alpha must be > 0 when not auto-tuned, got %g", c.Alpha)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("rl: BatchSize must be > 0, got %d", c.BatchSize)
	}
	if c.UpdateEvery <= 0 {
		return fmt.Errorf("rl: UpdateEvery must be > 0, got %d", c.UpdateEvery)
	}
	if c.UpdatesPerRound <= 0 {
		return fmt.Errorf("rl: UpdatesPerRound must be > 0, got %d", c.UpdatesPerRound)
	}
	if c.ReplayCapacity < c.BatchSize {
		return fmt.Errorf("rl: ReplayCapacity (%d) must be >= BatchSize (%d)",
			c.ReplayCapacity, c.BatchSize)
	}
	if c.ExploreEps < 0 || c.ExploreEps > 1 {
		return fmt.Errorf("rl: ExploreEps must be in [0,1], got %g", c.ExploreEps)
	}
	return nil
}

// SAC is a Soft Actor-Critic agent for a scalar action in [-1, 1].
// It is not safe for concurrent use.
type SAC struct {
	cfg SACConfig
	rng *rand.Rand

	actor    *nn.MLP // state -> [mean, logStd]
	q1, q2   *nn.MLP // state+action -> value
	q1t, q2t *nn.MLP // target critics

	actorOpt *nn.Adam
	q1Opt    *nn.Adam
	q2Opt    *nn.Adam

	actorG, q1G, q2G *nn.Grads
	// scratch gradient buffers for action-gradient probes
	q1Probe, q2Probe *nn.Grads

	logAlpha      float64
	targetEntropy float64

	replay       *Replay
	sinceUpdate  int
	totalUpdates int
	batch        []Transition
	// scratch buffers reused across updates
	saBuf []float64
}

// NewSAC returns a SAC agent with the given configuration.
func NewSAC(cfg SACConfig) (*SAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	actor, err := nn.NewMLP(rng, []int{cfg.StateDim, cfg.Hidden, cfg.Hidden, 2}, nn.ActReLU, nn.ActIdentity)
	if err != nil {
		return nil, err
	}
	newCritic := func() (*nn.MLP, error) {
		return nn.NewMLP(rng, []int{cfg.StateDim + 1, cfg.Hidden, cfg.Hidden, 1}, nn.ActReLU, nn.ActIdentity)
	}
	q1, err := newCritic()
	if err != nil {
		return nil, err
	}
	q2, err := newCritic()
	if err != nil {
		return nil, err
	}
	replay, err := NewReplay(cfg.ReplayCapacity)
	if err != nil {
		return nil, err
	}
	s := &SAC{
		cfg:           cfg,
		rng:           rng,
		actor:         actor,
		q1:            q1,
		q2:            q2,
		q1t:           q1.Clone(),
		q2t:           q2.Clone(),
		logAlpha:      math.Log(cfg.Alpha),
		targetEntropy: -1,
		replay:        replay,
		saBuf:         make([]float64, cfg.StateDim+1),
	}
	if s.actorOpt, err = nn.NewAdam(actor, cfg.LR); err != nil {
		return nil, err
	}
	if s.q1Opt, err = nn.NewAdam(q1, cfg.LR); err != nil {
		return nil, err
	}
	if s.q2Opt, err = nn.NewAdam(q2, cfg.LR); err != nil {
		return nil, err
	}
	s.actorG = actor.NewGrads()
	s.q1G = q1.NewGrads()
	s.q2G = q2.NewGrads()
	s.q1Probe = q1.NewGrads()
	s.q2Probe = q2.NewGrads()
	return s, nil
}

// alpha returns the current entropy temperature.
func (s *SAC) alpha() float64 { return math.Exp(s.logAlpha) }

// Alpha exposes the entropy temperature for diagnostics.
func (s *SAC) Alpha() float64 { return s.alpha() }

// TotalUpdates returns the number of gradient steps behind the agent's
// weights: those it took, plus those restored with its weights.
func (s *SAC) TotalUpdates() int { return s.totalUpdates }

// ReplayLen returns the number of stored transitions.
func (s *SAC) ReplayLen() int { return s.replay.Len() }

// policyOut computes mean and clamped logStd for a state tape.
func policyOut(out []float64) (mean, logStd float64) {
	mean = out[0]
	logStd = out[1]
	if logStd < logStdMin {
		logStd = logStdMin
	}
	if logStd > logStdMax {
		logStd = logStdMax
	}
	return mean, logStd
}

// SelectAction returns an action in [-1, 1]. When deterministic, it
// returns tanh(mean) (used at evaluation); otherwise it samples from the
// squashed Gaussian.
func (s *SAC) SelectAction(state []float64, deterministic bool) (float64, error) {
	_, out, err := s.actor.Forward(state)
	if err != nil {
		return 0, fmt.Errorf("rl: select action: %w", err)
	}
	mean, logStd := policyOut(out)
	if deterministic {
		return math.Tanh(mean), nil
	}
	if s.cfg.ExploreEps > 0 && s.rng.Float64() < s.cfg.ExploreEps {
		return 2*s.rng.Float64() - 1, nil
	}
	u := mean + math.Exp(logStd)*s.rng.NormFloat64()
	return math.Tanh(u), nil
}

// Observe stores a transition and, every UpdateEvery observations, runs
// UpdatesPerRound gradient steps (the paper's "incremental training step
// whenever 50 new data points are collected").
func (s *SAC) Observe(t Transition) error {
	if len(t.State) != s.cfg.StateDim || len(t.NextState) != s.cfg.StateDim {
		return fmt.Errorf("rl: transition state dims %d/%d, want %d",
			len(t.State), len(t.NextState), s.cfg.StateDim)
	}
	if t.Action < -1 || t.Action > 1 {
		return fmt.Errorf("rl: action %g outside [-1,1]", t.Action)
	}
	s.replay.Add(t)
	s.sinceUpdate++
	if s.sinceUpdate >= s.cfg.UpdateEvery && s.replay.Len() >= s.cfg.BatchSize {
		s.sinceUpdate = 0
		for i := 0; i < s.cfg.UpdatesPerRound; i++ {
			if err := s.update(); err != nil {
				return err
			}
		}
	}
	return nil
}

// criticForward evaluates critic q at (state, action).
func (s *SAC) criticForward(q *nn.MLP, state []float64, action float64) (*nn.Tape, float64, error) {
	sa := s.saBuf
	copy(sa, state)
	sa[len(sa)-1] = action
	tape, out, err := q.Forward(sa)
	if err != nil {
		return nil, 0, err
	}
	return tape, out[0], nil
}

// sampleSquashed draws a squashed-Gaussian action from the policy output,
// returning the action, its log-probability, and the pieces needed for
// pathwise gradients.
func (s *SAC) sampleSquashed(mean, logStd float64) (action, logProb, eps float64) {
	std := math.Exp(logStd)
	eps = s.rng.NormFloat64()
	u := mean + std*eps
	action = math.Tanh(u)
	// log N(u; mean, std) = -0.5*eps^2 - logStd - 0.5*log(2*pi)
	logProb = -0.5*eps*eps - logStd - 0.5*math.Log(2*math.Pi) -
		math.Log(1-action*action+tanhEps)
	return action, logProb, eps
}

// update performs one SAC gradient step on a sampled minibatch.
func (s *SAC) update() error {
	var err error
	s.batch, err = s.replay.Sample(s.rng, s.cfg.BatchSize, s.batch)
	if err != nil {
		return err
	}
	alpha := s.alpha()
	n := float64(len(s.batch))

	// ---- Critic update ----
	s.q1G.Zero()
	s.q2G.Zero()
	for _, tr := range s.batch {
		// Target value via target critics and fresh policy action.
		_, nextOut, err := s.actor.Forward(tr.NextState)
		if err != nil {
			return err
		}
		nm, nls := policyOut(nextOut)
		na, nlp, _ := s.sampleSquashed(nm, nls)
		_, q1n, err := s.criticForward(s.q1t, tr.NextState, na)
		if err != nil {
			return err
		}
		_, q2n, err := s.criticForward(s.q2t, tr.NextState, na)
		if err != nil {
			return err
		}
		qn := math.Min(q1n, q2n) - alpha*nlp
		y := tr.Reward
		if !tr.Done {
			y += s.cfg.Gamma * qn
		}
		// MSE gradients for both critics.
		t1, v1, err := s.criticForward(s.q1, tr.State, tr.Action)
		if err != nil {
			return err
		}
		if _, err := s.q1.Backward(t1, []float64{v1 - y}, s.q1G); err != nil {
			return err
		}
		t2, v2, err := s.criticForward(s.q2, tr.State, tr.Action)
		if err != nil {
			return err
		}
		if _, err := s.q2.Backward(t2, []float64{v2 - y}, s.q2G); err != nil {
			return err
		}
	}
	s.q1G.Scale(1 / n)
	s.q2G.Scale(1 / n)
	if err := s.q1Opt.Step(s.q1G); err != nil {
		return err
	}
	if err := s.q2Opt.Step(s.q2G); err != nil {
		return err
	}

	// ---- Actor (and temperature) update ----
	s.actorG.Zero()
	var logProbSum float64
	for _, tr := range s.batch {
		tape, out, err := s.actor.Forward(tr.State)
		if err != nil {
			return err
		}
		mean, logStd := policyOut(out)
		std := math.Exp(logStd)
		a, lp, eps := s.sampleSquashed(mean, logStd)
		logProbSum += lp

		// dQmin/da via the critic with the smaller value.
		t1, v1, err := s.criticForward(s.q1, tr.State, a)
		if err != nil {
			return err
		}
		t2, v2, err := s.criticForward(s.q2, tr.State, a)
		if err != nil {
			return err
		}
		var dQda float64
		if v1 <= v2 {
			s.q1Probe.Zero()
			gin, err := s.q1.Backward(t1, []float64{1}, s.q1Probe)
			if err != nil {
				return err
			}
			dQda = gin[len(gin)-1]
		} else {
			s.q2Probe.Zero()
			gin, err := s.q2.Backward(t2, []float64{1}, s.q2Probe)
			if err != nil {
				return err
			}
			dQda = gin[len(gin)-1]
		}

		// Loss L = alpha*logpi - Qmin. Pathwise derivatives:
		// da/dmean = 1 - a^2; da/dlogStd = (1-a^2)*std*eps.
		// dlogpi/da (squash correction) = 2a/(1-a^2+eps);
		// dlogpi/dlogStd (explicit) = -1.
		dadm := 1 - a*a
		dadls := dadm * std * eps
		dLda := alpha*(2*a/(1-a*a+tanhEps)) - dQda
		gMean := dLda*dadm + meanReg*mean
		gLogStd := dLda*dadls - alpha + meanReg*logStd
		// Respect the logStd clamp: no gradient outside the clamp range.
		rawLogStd := out[1]
		if rawLogStd <= logStdMin || rawLogStd >= logStdMax {
			gLogStd = 0
		}
		if _, err := s.actor.Backward(tape, []float64{gMean, gLogStd}, s.actorG); err != nil {
			return err
		}
	}
	s.actorG.Scale(1 / n)
	if err := s.actorOpt.Step(s.actorG); err != nil {
		return err
	}

	if s.cfg.AutoAlpha {
		// d/dlogAlpha of -alpha*(logpi + targetEntropy) averaged over batch.
		avgLP := logProbSum / n
		grad := -(avgLP + s.targetEntropy) * s.alpha()
		s.logAlpha -= s.cfg.LR * grad
		// Keep the temperature in a sane range.
		if s.logAlpha < math.Log(1e-3) {
			s.logAlpha = math.Log(1e-3)
		}
		if s.logAlpha > math.Log(2) {
			s.logAlpha = math.Log(2)
		}
	}

	// ---- Target network soft update ----
	if err := s.q1t.SoftUpdate(s.q1, s.cfg.Tau); err != nil {
		return err
	}
	if err := s.q2t.SoftUpdate(s.q2, s.cfg.Tau); err != nil {
		return err
	}
	s.totalUpdates++
	return nil
}

// QValue returns min(Q1, Q2) for a state-action pair — a diagnostic view
// of the critic's landscape.
func (s *SAC) QValue(state []float64, action float64) (float64, error) {
	_, q1, err := s.criticForward(s.q1, state, action)
	if err != nil {
		return 0, err
	}
	_, q2, err := s.criticForward(s.q2, state, action)
	if err != nil {
		return 0, err
	}
	return math.Min(q1, q2), nil
}

// PolicyParams returns the pre-squash mean and clamped log-std at a state —
// a diagnostic view of the actor.
func (s *SAC) PolicyParams(state []float64) (mean, logStd float64, err error) {
	_, out, err := s.actor.Forward(state)
	if err != nil {
		return 0, 0, err
	}
	mean, logStd = policyOut(out)
	return mean, logStd, nil
}

// ForceUpdate runs n gradient steps immediately (used by pre-training).
func (s *SAC) ForceUpdate(n int) error {
	if s.replay.Len() < s.cfg.BatchSize {
		return fmt.Errorf("rl: replay has %d transitions, need %d", s.replay.Len(), s.cfg.BatchSize)
	}
	for i := 0; i < n; i++ {
		if err := s.update(); err != nil {
			return err
		}
	}
	return nil
}
