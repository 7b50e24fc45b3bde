// Package dist provides the page-access distributions used by the workload
// models: uniform (YCSB workload C with uniform request keys, §5 of the
// paper), Zipfian (skewed best-effort access profiles such as PageRank's
// high-degree vertices), and a scan distribution for streaming phases.
//
// A Distribution answers two questions the simulator needs:
//
//  1. Sample(rng): draw a random item index, used to generate the sampled
//     access stream that feeds PEBS counters.
//  2. CDF(k): the fraction of all accesses that fall on the k hottest
//     items, used by the analytic throughput models to convert "the top m
//     pages are FMem-resident" into an FMem hit ratio.
//
// Items are indexed by hotness rank: index 0 is the hottest item.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution models the access popularity over n items ranked by hotness.
type Distribution interface {
	// N returns the number of items.
	N() int
	// Sample draws one item index in [0, N()) using rng.
	Sample(rng *rand.Rand) int
	// CDF returns the fraction of accesses hitting the k hottest items.
	// CDF(0) = 0 and CDF(N()) = 1; CDF is monotone non-decreasing.
	CDF(k int) float64
}

// Uniform is a distribution where every item is equally likely. Under
// uniform access no page looks hotter than another — this is exactly why
// frequency-based tiering classifies LC data as cold (§2.2).
type Uniform struct {
	n int
}

var _ Distribution = (*Uniform)(nil)

// NewUniform returns a uniform distribution over n items. n must be > 0.
func NewUniform(n int) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: uniform n must be > 0, got %d", n)
	}
	return &Uniform{n: n}, nil
}

// N implements Distribution.
func (u *Uniform) N() int { return u.n }

// Sample implements Distribution.
func (u *Uniform) Sample(rng *rand.Rand) int { return rng.Intn(u.n) }

// CDF implements Distribution.
func (u *Uniform) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= u.n:
		return 1
	default:
		return float64(k) / float64(u.n)
	}
}

// Zipf is a Zipfian distribution with exponent theta over n items; item i
// has probability proportional to 1/(i+1)^theta. theta = 0 degenerates to
// uniform; larger theta concentrates accesses on fewer items.
type Zipf struct {
	n     int
	theta float64
	// cdf[i] = probability mass of items [0, i]; len == n.
	cdf []float64
	// guide[j] = min{i : cdf[i] >= j/n}; len == n. This Chen–Asau index
	// table lets Sample start its scan next to the answer.
	guide []int32
}

var _ Distribution = (*Zipf)(nil)

// NewZipf returns a Zipf distribution over n items with exponent theta.
// n must be > 0 and theta must be >= 0.
func NewZipf(n int, theta float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: zipf n must be > 0, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dist: zipf n must be <= %d, got %d", math.MaxInt32, n)
	}
	if theta < 0 || math.IsNaN(theta) {
		return nil, fmt.Errorf("dist: zipf theta must be >= 0, got %g", theta)
	}
	z := &Zipf{n: n, theta: theta, cdf: make([]float64, n)}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.cdf[n-1] = 1 // guard against rounding
	z.guide = guideTable(z.cdf)
	return z, nil
}

// guideTable returns guide[j] = min{i : cdf[i] >= j/n} for a
// non-decreasing cdf of length n that ends at 1.
func guideTable(cdf []float64) []int32 {
	n := len(cdf)
	guide := make([]int32, n)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(n) {
			i++
		}
		guide[j] = int32(i)
	}
	return guide
}

// N implements Distribution.
func (z *Zipf) N() int { return z.n }

// Theta returns the skew exponent.
func (z *Zipf) Theta() float64 { return z.theta }

// Sample implements Distribution by guide-table (Chen–Asau) inversion of
// one rng.Float64() draw u. It returns min{i : cdf[i] >= u}, the index a
// binary search over the CDF finds, in O(1) expected steps. The scan
// runs both ways from guide[int(u*n)], so the result does not depend on
// how u*n rounds.
func (z *Zipf) Sample(rng *rand.Rand) int { return z.invert(rng.Float64()) }

// invert maps u in [0, 1) to min{i : cdf[i] >= u}.
func (z *Zipf) invert(u float64) int {
	j := int(u * float64(z.n))
	if j >= z.n {
		j = z.n - 1
	}
	i := int(z.guide[j])
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return i
}

// CDF implements Distribution.
func (z *Zipf) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= z.n:
		return 1
	default:
		return z.cdf[k-1]
	}
}

// Scan models a streaming access pattern: each item is visited the same
// number of times per pass, so CDF is uniform, but Sample walks items
// sequentially, approximating the page-table-order scans of graph kernels.
// Scan is not safe for concurrent use.
type Scan struct {
	n    int
	next int
}

var _ Distribution = (*Scan)(nil)

// NewScan returns a scan distribution over n items. n must be > 0.
func NewScan(n int) (*Scan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: scan n must be > 0, got %d", n)
	}
	return &Scan{n: n}, nil
}

// N implements Distribution.
func (s *Scan) N() int { return s.n }

// Sample implements Distribution; rng is unused because scans are
// deterministic, but the parameter is kept for interface compatibility.
func (s *Scan) Sample(_ *rand.Rand) int {
	i := s.next
	s.next++
	if s.next >= s.n {
		s.next = 0
	}
	return i
}

// CDF implements Distribution.
func (s *Scan) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= s.n:
		return 1
	default:
		return float64(k) / float64(s.n)
	}
}

// Mixture combines component distributions with fixed weights, e.g. a
// graph kernel that is 70% skewed vertex access and 30% edge-list scan.
type Mixture struct {
	n       int
	comps   []Distribution
	weights []float64 // cumulative, last = 1
}

var _ Distribution = (*Mixture)(nil)

// NewMixture returns a mixture of comps with the given positive weights
// (normalized internally). All components must cover the same item count.
func NewMixture(comps []Distribution, weights []float64) (*Mixture, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("dist: mixture needs at least one component")
	}
	if len(comps) != len(weights) {
		return nil, fmt.Errorf("dist: mixture has %d components but %d weights", len(comps), len(weights))
	}
	n := comps[0].N()
	var sum float64
	for i, c := range comps {
		if c.N() != n {
			return nil, fmt.Errorf("dist: mixture component %d covers %d items, want %d", i, c.N(), n)
		}
		if weights[i] <= 0 {
			return nil, fmt.Errorf("dist: mixture weight %d must be > 0, got %g", i, weights[i])
		}
		sum += weights[i]
	}
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &Mixture{n: n, comps: comps, weights: cum}, nil
}

// N implements Distribution.
func (m *Mixture) N() int { return m.n }

// Sample implements Distribution.
func (m *Mixture) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	for i, w := range m.weights {
		if u <= w {
			return m.comps[i].Sample(rng)
		}
	}
	return m.comps[len(m.comps)-1].Sample(rng)
}

// CDF implements Distribution as the weighted sum of component CDFs. This
// is exact only when the components rank items identically (true for our
// use: all components are hot-rank ordered over the same item set).
func (m *Mixture) CDF(k int) float64 {
	var v, prev float64
	for i, c := range m.comps {
		w := m.weights[i] - prev
		prev = m.weights[i]
		v += w * c.CDF(k)
	}
	return v
}

// HitRatio returns the fraction of accesses that hit when the hottest
// residentPages of totalPages are resident, assuming the dataset maps
// uniformly onto pages in hotness-rank order. It interpolates CDF between
// page boundaries.
func HitRatio(d Distribution, residentPages, totalPages int) float64 {
	if totalPages <= 0 || residentPages <= 0 {
		return 0
	}
	if residentPages >= totalPages {
		return 1
	}
	// Items map to pages in rank order: page p holds items
	// [p*itemsPerPage, (p+1)*itemsPerPage).
	frac := float64(residentPages) / float64(totalPages)
	k := frac * float64(d.N())
	k0 := int(math.Floor(k))
	c0 := d.CDF(k0)
	c1 := d.CDF(k0 + 1)
	return c0 + (c1-c0)*(k-float64(k0))
}
