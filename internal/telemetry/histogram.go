package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/ring"
)

// Histogram is a sliding-window sample reservoir: it retains the most
// recent `window` observations and snapshots exact quantiles over them.
// Windowing (rather than all-time aggregation) matches how the paper's
// evaluation reads tail latency — "what is P99 right now" — and bounds
// memory for arbitrarily long runs. All methods are safe for concurrent
// use and are no-ops on a nil receiver.
type Histogram struct {
	mu      sync.Mutex
	samples ring.Ring[float64] // the window
	count   uint64             // total observations ever
	sum     float64            // all-time sum (for the all-time mean)
	scratch []float64          // reused sort buffer for snapshots
	// buckets counts all-time observations <= each DefBuckets bound
	// (non-cumulative per cell; cumulated at export). Observations above
	// the last bound land only in count — the implicit +Inf bucket.
	buckets [len(DefBuckets)]uint64
	// exemplars holds the most recent traced observation per bucket
	// (index len(DefBuckets) is the implicit +Inf bucket), closing the
	// metrics→trace loop on /metrics: a slow bucket links straight to a
	// trace ID that landed in it. Only ObserveExemplar writes them.
	exemplars [len(DefBuckets) + 1]Exemplar
}

// Exemplar is the most recent traced observation in one histogram
// bucket, rendered as an OpenMetrics `# {trace_id="…"}` suffix on that
// bucket's sample line.
type Exemplar struct {
	TraceID string
	Value   float64
	TS      time.Time
}

// DefBuckets are the fixed upper bounds of the histogram's all-time
// cumulative buckets — the Prometheus client default latency ladder
// (seconds), which spans this system's request and dispatch latencies.
// Unlike the quantile window, bucket counts never reset, so scrapes at
// any interval can compute rates over them.
var DefBuckets = [...]float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// NewHistogram returns a histogram retaining the last window samples
// (<= 0 selects DefaultHistWindow).
func NewHistogram(window int) *Histogram {
	if window <= 0 {
		window = DefaultHistWindow
	}
	return &Histogram{samples: ring.New[float64](window)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.observe(v, "")
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// remembers it as the bucket's exemplar (last writer wins).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.observe(v, traceID)
}

func (h *Histogram) observe(v float64, traceID string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.samples.Push(v)
	h.count++
	h.sum += v
	bucket := len(DefBuckets) // implicit +Inf
	for i, bound := range DefBuckets {
		if v <= bound {
			h.buckets[i]++
			bucket = i
			break
		}
	}
	if traceID != "" {
		h.exemplars[bucket] = Exemplar{TraceID: traceID, Value: v, TS: time.Now()}
	}
	h.mu.Unlock()
}

// Exemplars returns the per-bucket exemplars aligned with DefBuckets
// plus the implicit +Inf bucket last. Buckets that never saw a traced
// observation have a zero Exemplar. A nil histogram returns zeros.
func (h *Histogram) Exemplars() (ex [len(DefBuckets) + 1]Exemplar) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.exemplars
}

// Buckets returns the all-time cumulative bucket counts aligned with
// DefBuckets, plus the all-time sum and count (the implicit +Inf
// bucket). A nil histogram returns zeros.
func (h *Histogram) Buckets() (counts [len(DefBuckets)]uint64, sum float64, count uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		counts[i] = cum
	}
	return counts, h.sum, h.count
}

// Count returns the total number of observations ever recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// HistSnapshot summarizes a histogram window.
type HistSnapshot struct {
	// Count is the all-time observation count; Window is how many of
	// those the quantiles below are computed over.
	Count  uint64  `json:"count"`
	Window int     `json:"window"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Mean is the mean over the current window; AllTimeMean covers every
	// observation ever made.
	Mean        float64 `json:"mean"`
	AllTimeMean float64 `json:"all_time_mean"`
	P50         float64 `json:"p50"`
	P90         float64 `json:"p90"`
	P99         float64 `json:"p99"`
}

// Snapshot computes the current window summary. Quantiles are exact over
// the window (linear interpolation between order statistics). An empty
// histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Window: h.samples.Len()}
	if s.Window == 0 {
		return s
	}
	buf := h.sortedLocked()
	s.Min = buf[0]
	s.Max = buf[len(buf)-1]
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	s.Mean = sum / float64(len(buf))
	s.AllTimeMean = h.sum / float64(h.count)
	s.P50 = quantileSorted(buf, 0.50)
	s.P90 = quantileSorted(buf, 0.90)
	s.P99 = quantileSorted(buf, 0.99)
	return s
}

// Quantile returns the q-quantile (q in [0,1]) over the current window,
// 0 if empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.samples.Len() == 0 {
		return 0
	}
	return quantileSorted(h.sortedLocked(), q)
}

// sortedLocked copies the window into the reused scratch buffer and
// sorts it. Callers hold h.mu.
func (h *Histogram) sortedLocked() []float64 {
	h.scratch = h.samples.Append(h.scratch[:0], nil)
	sort.Float64s(h.scratch)
	return h.scratch
}

// quantileSorted returns the q-quantile of a sorted, non-empty sample via
// linear interpolation between closest order statistics (the "R-7"
// definition used by numpy's default percentile).
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
