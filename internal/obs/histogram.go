package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets is the one layout of every latency histogram:
// 0.25 µs to ~16.8 s, doubling. It spans an exact candidate lookup
// (about a microsecond), a warm link (tens of microseconds), an HTTP
// request (~0.1 ms to link, a few ms to annotate) and an EM
// iteration (tens of milliseconds), so every quantile estimate lands
// within a factor of two of the cost instead of clamping to a bound.
var DefLatencyBuckets = ExpBuckets(2.5e-7, 2, 27)

// ExpBuckets returns n bucket bounds growing geometrically from start
// by factor: start, start·factor, …, start·factor^(n-1). It panics
// unless start > 0, factor > 1 and n ≥ 1 — bucket layouts are fixed
// at wiring time, so a bad one is a programming error.
func ExpBuckets(start, factor float64, n int) []float64 {
	if !(start > 0) || !(factor > 1) || n < 1 || math.IsInf(start, 0) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	bounds := make([]float64, n)
	bounds[0] = start
	for i := 1; i < n; i++ {
		bounds[i] = bounds[i-1] * factor
	}
	return bounds
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// is lock-free and safe for concurrent use. Bounds are bucket upper
// limits (inclusive, per Prometheus `le` semantics) in ascending
// order; observations above the last bound land in an implicit +Inf
// bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	total   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the common
// latency-recording call.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot copies the per-bucket counts, total and sum. Buckets are
// read individually, so a snapshot taken during concurrent Observe
// calls may be off by in-flight observations — fine for monitoring.
func (h *Histogram) snapshot() (counts []uint64, total uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load(), h.Sum()
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the bucket containing the target rank — the
// same estimate Prometheus' histogram_quantile computes. Returns 0
// with no observations; observations in the +Inf bucket clamp to the
// largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	counts, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (h.bounds[i]-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
