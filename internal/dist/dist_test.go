package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewUniformValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewUniform(n); err == nil {
			t.Errorf("NewUniform(%d) succeeded, want error", n)
		}
	}
}

func TestUniformCDF(t *testing.T) {
	u, err := NewUniform(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want float64
	}{
		{-1, 0}, {0, 0}, {1, 0.25}, {2, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := u.CDF(tc.k); got != tc.want {
			t.Errorf("CDF(%d) = %g, want %g", tc.k, got, tc.want)
		}
	}
}

func TestUniformSampleRange(t *testing.T) {
	u, _ := NewUniform(10)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		idx := u.Sample(rng)
		if idx < 0 || idx >= 10 {
			t.Fatalf("Sample out of range: %d", idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("item %d sampled %d times, want ~1000", i, c)
		}
	}
}

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1) succeeded, want error")
	}
	if _, err := NewZipf(10, -0.5); err == nil {
		t.Error("NewZipf with negative theta succeeded, want error")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NewZipf with NaN theta succeeded, want error")
	}
}

func TestZipfZeroThetaIsUniform(t *testing.T) {
	z, err := NewZipf(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 25, 50, 99} {
		want := float64(k) / 100
		if got := z.CDF(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("theta=0 CDF(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestZipfSkewConcentration(t *testing.T) {
	// Higher theta -> more mass on the hottest 1% of items.
	low, _ := NewZipf(1000, 0.5)
	high, _ := NewZipf(1000, 1.2)
	if low.CDF(10) >= high.CDF(10) {
		t.Errorf("theta=0.5 CDF(10)=%g should be < theta=1.2 CDF(10)=%g",
			low.CDF(10), high.CDF(10))
	}
	// A strongly skewed Zipf concentrates the majority of accesses on a
	// small fraction of items.
	if got := high.CDF(100); got < 0.5 {
		t.Errorf("theta=1.2 CDF(100 of 1000) = %g, want >= 0.5", got)
	}
}

func TestZipfSampleMatchesCDF(t *testing.T) {
	z, _ := NewZipf(50, 1.0)
	rng := rand.New(rand.NewSource(99))
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Sample(rng) < 10 {
			hits++
		}
	}
	want := z.CDF(10)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical CDF(10) = %g, analytic %g", got, want)
	}
}

// binarySearchIndex is the oracle for Zipf sampling: the lower bound of u
// in cdf, found by binary search.
func binarySearchIndex(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkInvertMatchesBinarySearch checks that guide-table inversion
// returns the binary-search index for every u that can sit on a
// boundary: 0, the largest Float64, each cdf value and bucket edge j/n,
// their neighbouring floats, and a stream of random draws.
func checkInvertMatchesBinarySearch(t *testing.T, label string, z *Zipf) {
	t.Helper()
	bad := 0
	check := func(u float64) {
		if u < 0 || u >= 1 || bad > 5 {
			return
		}
		if got, want := z.invert(u), binarySearchIndex(z.cdf, u); got != want {
			bad++
			t.Errorf("%s u=%v: guide table gives %d, binary search %d", label, u, got, want)
		}
	}
	checkAround := func(x float64) {
		check(math.Nextafter(x, math.Inf(-1)))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}
	check(0)
	check(math.Nextafter(1, 0))
	for _, c := range z.cdf {
		checkAround(c)
	}
	for j := 0; j <= z.n; j++ {
		checkAround(float64(j) / float64(z.n))
	}
	rng := rand.New(rand.NewSource(int64(z.n)))
	for k := 0; k < 20_000; k++ {
		check(rng.Float64())
	}
}

// TestZipfGuideTableMatchesBinarySearch compares guide-table inversion
// with the binary-search oracle over a grid of sizes and skews. theta = 8
// makes the CDF plateau at 1 in long runs of ties.
func TestZipfGuideTableMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 560, 9000, 1 << 20} {
		for _, theta := range []float64{0, 0.2, 0.55, 0.99, 1.05, 1.3, 8} {
			z, err := NewZipf(n, theta)
			if err != nil {
				t.Fatal(err)
			}
			checkInvertMatchesBinarySearch(t, fmt.Sprintf("n=%d theta=%g", n, theta), z)
		}
	}
}

// TestZipfGuideTableRoundingBoundary covers the int(u*n) rounding
// boundary. For u = Nextafter(j/n, 0) the product u*n can round up to j,
// so the scan starts at guide[j] although the answer lies below it. The
// uniform CDFs here put a cdf value on each such u, which only the
// downward scan finds.
func TestZipfGuideTableRoundingBoundary(t *testing.T) {
	for _, n := range []int{6, 10, 13, 560, 9000} {
		cdf := make([]float64, n)
		windows := 0
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(n)
			if u := math.Nextafter(cdf[i], 0); i < n-1 && int(u*float64(n)) > i {
				cdf[i] = u
				windows++
			}
		}
		if windows == 0 {
			t.Fatalf("n=%d: no rounding window to test", n)
		}
		z := &Zipf{n: n, cdf: cdf, guide: guideTable(cdf)}
		checkInvertMatchesBinarySearch(t, fmt.Sprintf("uniform n=%d with %d rounding windows", n, windows), z)
	}
}

// TestZipfSampleRNGStream checks that Sample consumes exactly one
// Float64 per draw, so the rng stream of every caller is unchanged.
func TestZipfSampleRNGStream(t *testing.T) {
	z, err := NewZipf(9000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	twin := rand.New(rand.NewSource(7))
	const k = 10_000
	for i := 0; i < k; i++ {
		u := twin.Float64()
		if got, want := z.Sample(rng), binarySearchIndex(z.cdf, u); got != want {
			t.Fatalf("draw %d: Sample = %d, binary search of the twin's u = %d", i, got, want)
		}
	}
	if a, b := rng.Int63(), twin.Int63(); a != b {
		t.Fatalf("rng diverged from its twin after %d draws: %d vs %d", k, a, b)
	}
}

func TestZipfTheta(t *testing.T) {
	z, _ := NewZipf(10, 0.75)
	if got := z.Theta(); got != 0.75 {
		t.Errorf("Theta() = %g, want 0.75", got)
	}
}

func TestScan(t *testing.T) {
	s, err := NewScan(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	got := []int{s.Sample(rng), s.Sample(rng), s.Sample(rng), s.Sample(rng)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan sample %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.CDF(1) != 1.0/3 || s.CDF(3) != 1 {
		t.Errorf("scan CDF wrong: CDF(1)=%g CDF(3)=%g", s.CDF(1), s.CDF(3))
	}
	if _, err := NewScan(0); err == nil {
		t.Error("NewScan(0) succeeded, want error")
	}
}

func TestMixtureValidation(t *testing.T) {
	u, _ := NewUniform(10)
	z, _ := NewZipf(20, 1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u}, []float64{1, 2}); err == nil {
		t.Error("weight/component count mismatch succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u, z}, []float64{1, 1}); err == nil {
		t.Error("mixture over different item counts succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u}, []float64{0}); err == nil {
		t.Error("zero weight succeeded, want error")
	}
}

func TestMixtureCDF(t *testing.T) {
	u, _ := NewUniform(100)
	z, _ := NewZipf(100, 1.0)
	m, err := NewMixture([]Distribution{z, u}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, 50, 100} {
		want := 0.75*z.CDF(k) + 0.25*u.CDF(k)
		if got := m.CDF(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("mixture CDF(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestMixtureSample(t *testing.T) {
	u, _ := NewUniform(100)
	z, _ := NewZipf(100, 1.5)
	m, _ := NewMixture([]Distribution{z, u}, []float64{1, 1})
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		idx := m.Sample(rng)
		if idx < 0 || idx >= 100 {
			t.Fatalf("mixture sample out of range: %d", idx)
		}
		if idx < 10 {
			hits++
		}
	}
	want := m.CDF(10)
	if got := float64(hits) / n; math.Abs(got-want) > 0.015 {
		t.Errorf("mixture empirical CDF(10) = %g, analytic %g", got, want)
	}
}

func TestHitRatio(t *testing.T) {
	u, _ := NewUniform(1000)
	if got := HitRatio(u, 0, 100); got != 0 {
		t.Errorf("HitRatio(0 pages) = %g, want 0", got)
	}
	if got := HitRatio(u, 100, 100); got != 1 {
		t.Errorf("HitRatio(all pages) = %g, want 1", got)
	}
	if got := HitRatio(u, 50, 100); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uniform HitRatio(50%%) = %g, want 0.5", got)
	}
	if got := HitRatio(u, 10, 0); got != 0 {
		t.Errorf("HitRatio with zero totalPages = %g, want 0", got)
	}
	// Skewed distribution: half the pages should capture well over half
	// the accesses.
	z, _ := NewZipf(1000, 1.0)
	if got := HitRatio(z, 50, 100); got <= 0.6 {
		t.Errorf("zipf HitRatio(50%%) = %g, want > 0.6", got)
	}
}

// Property: all CDFs are monotone with CDF(0)=0, CDF(N)=1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64, thetaRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		theta := math.Abs(math.Mod(thetaRaw, 2))
		z, err := NewZipf(n, theta)
		if err != nil {
			return false
		}
		if z.CDF(0) != 0 || z.CDF(n) != 1 {
			return false
		}
		prev := 0.0
		for k := 1; k <= n; k++ {
			c := z.CDF(k)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: HitRatio is monotone in residentPages.
func TestHitRatioMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z, err := NewZipf(200+rng.Intn(300), rng.Float64()*1.5)
		if err != nil {
			return false
		}
		total := 100
		prev := 0.0
		for m := 0; m <= total; m++ {
			h := HitRatio(z, m, total)
			if h < prev-1e-12 || h < 0 || h > 1 {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
