package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Every histogram shares one log-linear bucket layout: 8 linear
// sub-buckets per power-of-two octave from 2^-30 to 2^34, so no bucket is
// wider than 1/8 (12.5%) of its lower bound. A value's bucket is its
// float64 exponent and top three mantissa bits — no search. Upper bounds
// are inclusive (Prometheus `le`): a value equal to a bound counts in that
// bound's bucket. Values at or below 2^-30 count in the lowest bucket,
// values above 2^34 in +Inf. The integers 1–16 are bounds, one bucket
// each. In seconds, the range runs from about a nanosecond to five
// centuries.
const (
	subBits   = 3                      // 2^3 sub-buckets per octave
	keyShift  = 52 - subBits           // float64 bits below the exponent and sub-bucket bits
	lowKey    = (1023 - 30) << subBits // bucket key of the lowest bound, 2^-30
	numBounds = 64<<subBits + 1        // finite bounds 2^-30 … 2^34
	lowest    = 0x1p-30
	highest   = 0x1p34
)

// upper returns the inclusive upper bound of finite bucket i.
func upper(i int) float64 { return math.Float64frombits(uint64(lowKey+i) << keyShift) }

// bucketOf returns the bucket counting v.
func bucketOf(v float64) int {
	switch {
	case !(v > lowest): // NaN counts here too
		return 0
	case v > highest:
		return numBounds
	}
	// Positive floats order like their bits, so the next float down from a
	// bound keys the bucket that bound closes.
	return int((math.Float64bits(v)-1)>>keyShift) - lowKey + 1
}

// Histogram counts observations into the shared layout and keeps their
// sum, minimum and maximum. Observe is lock-free, so any number of
// goroutines may record into one histogram at once. Make one with
// NewHistogram, or register it on a Registry to have it exposed.
type Histogram struct {
	counts   [numBounds + 1]atomic.Uint64 // per bucket, +Inf last
	count    atomic.Uint64
	sum      atomic.Uint64 // float64 bits
	min, max atomic.Uint64 // float64 bits
}

// NewHistogram returns an empty histogram that no registry exposes.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Bounds and sum first: a reader that sees the count sees them too.
	casFloat(&h.min, func(old float64) (float64, bool) { return v, v < old })
	casFloat(&h.max, func(old float64) (float64, bool) { return v, v > old })
	casFloat(&h.sum, func(old float64) (float64, bool) { return old + v, true })
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
}

// casFloat replaces the float64 stored in a with next(old) until the swap
// wins or next declines.
func casFloat(a *atomic.Uint64, next func(old float64) (float64, bool)) {
	for {
		old := a.Load()
		v, ok := next(math.Float64frombits(old))
		if !ok || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observed value, NaN when empty.
func (h *Histogram) Max() float64 {
	if v := math.Float64frombits(h.max.Load()); v != math.Inf(-1) {
		return v
	}
	return math.NaN()
}

// Mean returns Sum/Count, NaN (0/0) when empty.
func (h *Histogram) Mean() float64 { return h.Sum() / float64(h.Count()) }

// Quantile estimates the q-quantile of the observations: BucketQuantile
// over the histogram's buckets, clamped to the observed minimum and
// maximum. NaN when empty.
func (h *Histogram) Quantile(q float64) float64 { return quantile(q, h) }

// quantile is the in-process estimator behind both Quantile methods:
// BucketQuantile over the summed counts of hs, clamped to their observed
// [min, max]. NaN when they are empty.
func quantile(q float64, hs ...*Histogram) float64 {
	var c counts
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, h := range hs {
		c.add(h) // counts before bounds: Observe sets the bounds first
		lo = math.Min(lo, math.Float64frombits(h.min.Load()))
		hi = math.Max(hi, math.Float64frombits(h.max.Load()))
	}
	v := BucketQuantile(q, c.buckets(c.window()))
	if math.IsNaN(v) { // math.Max and math.Min would let ±Inf win over NaN
		return v
	}
	return math.Max(lo, math.Min(hi, v))
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values (created on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() any { return NewHistogram() }).(*Histogram)
}

// Quantile estimates the q-quantile over every series of the family, as
// Histogram.Quantile does for one. NaN when the family is empty.
func (v *HistogramVec) Quantile(q float64) float64 {
	v.f.mu.Lock()
	hs := make([]*Histogram, 0, len(v.f.series))
	for _, s := range v.f.series {
		hs = append(hs, s.(*Histogram))
	}
	v.f.mu.Unlock()
	return quantile(q, hs...)
}

// Histogram registers (or returns) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramVec(name, help).With()
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, kindHistogram, labels)}
}

// Time starts a latency measurement; the returned stop function observes
// the elapsed seconds into h. Callers outside the wall-clock allowlist use
// it instead of touching time directly.
func Time(h *Histogram) func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// counts is a copy of the bucket counts of one histogram, or the sum over
// several. Each count was true at some instant during the copy.
type counts [numBounds + 1]uint64

func (c *counts) add(h *Histogram) {
	for i := range h.counts {
		c[i] += h.counts[i].Load()
	}
}

// window returns the finite buckets an exposition of c emits, lo through
// hi: from the bucket below the lowest non-empty one — its bound is the
// lower edge BucketQuantile interpolates from — up to the highest
// non-empty finite bucket. The window is empty (lo > hi) when no finite
// bucket holds an observation. It only widens as observations arrive.
func (c *counts) window() (lo, hi int) {
	lo, hi = numBounds, -1
	for i := 0; i < numBounds; i++ {
		if c[i] != 0 {
			lo, hi = min(lo, i), i
		}
	}
	if lo > 0 && lo <= hi {
		lo--
	}
	return lo, hi
}

// buckets returns c cumulatively over the buckets lo..hi, then +Inf.
// The finite buckets outside lo..hi must be empty.
func (c *counts) buckets(lo, hi int) []Bucket {
	out := make([]Bucket, 0, max(hi-lo+1, 0)+1)
	cum := uint64(0)
	for i := lo; i <= hi; i++ {
		cum += c[i]
		out = append(out, Bucket{Upper: upper(i), Count: float64(cum)})
	}
	return append(out, Bucket{Upper: math.Inf(1), Count: float64(cum + c[numBounds])})
}
