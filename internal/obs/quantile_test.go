package obs

import (
	"math"
	"sort"
	"testing"

	"bionav/internal/rng"
)

// cumulative builds a Bucket slice from bounds and per-bucket counts
// (the last count is the +Inf bucket's).
func cumulative(bounds []float64, counts []float64) []Bucket {
	out := make([]Bucket, len(bounds)+1)
	cum := 0.0
	for i, b := range bounds {
		cum += counts[i]
		out[i] = Bucket{Upper: b, Count: cum}
	}
	out[len(bounds)] = Bucket{Upper: math.Inf(1), Count: cum + counts[len(bounds)]}
	return out
}

func TestBucketQuantileGolden(t *testing.T) {
	// 100 observations: 10 in (0,1], 40 in (1,2], 40 in (2,4], 10 in (4,8].
	b := cumulative([]float64{1, 2, 4, 8}, []float64{10, 40, 40, 10, 0})
	cases := []struct {
		q    float64
		want float64
	}{
		{0.05, 0.5},  // rank 5 of 10 in (0,1], interpolated from 0
		{0.10, 1.0},  // exactly the first boundary
		{0.50, 2.0},  // rank 50 = top of the second bucket
		{0.75, 3.25}, // rank 75: 25 of 40 into (2,4]
		{0.90, 4.0},  // boundary again
		{0.95, 6.0},  // rank 95: 5 of 10 into (4,8]
		{1.00, 8.0},  // full rank = last finite bound
		{-0.1, math.Inf(-1)},
		{1.5, math.Inf(1)},
	}
	for _, c := range cases {
		got := BucketQuantile(c.q, b)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBucketQuantileInfBucket(t *testing.T) {
	// Half the mass beyond the largest finite bound: high quantiles clamp
	// to that bound rather than inventing a value the layout can't see.
	b := cumulative([]float64{1, 2}, []float64{5, 5, 10})
	if got := BucketQuantile(0.99, b); got != 2 {
		t.Errorf("q=0.99 in +Inf bucket: got %v, want 2 (largest finite bound)", got)
	}
	if got := BucketQuantile(0.25, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("q=0.25: got %v, want 1", got)
	}

	// Degenerate layout: only a +Inf bucket.
	onlyInf := []Bucket{{Upper: math.Inf(1), Count: 7}}
	if got := BucketQuantile(0.5, onlyInf); !math.IsInf(got, 1) {
		t.Errorf("only-Inf layout: got %v, want +Inf", got)
	}
}

func TestBucketQuantileEmpty(t *testing.T) {
	if got := BucketQuantile(0.5, nil); !math.IsNaN(got) {
		t.Errorf("nil buckets: got %v, want NaN", got)
	}
	empty := cumulative([]float64{1, 2}, []float64{0, 0, 0})
	if got := BucketQuantile(0.5, empty); !math.IsNaN(got) {
		t.Errorf("zero-count buckets: got %v, want NaN", got)
	}
	if got := BucketQuantile(math.NaN(), cumulative([]float64{1}, []float64{1, 0})); !math.IsNaN(got) {
		t.Errorf("NaN quantile: got %v, want NaN", got)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat", "")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	// The window runs from the lower bound of 0.05's bucket (0.046875,
	// 0.05078125] to 50's bucket (48, 52], then +Inf.
	b := buckets(h)
	first, last := b[0], b[len(b)-2]
	if first != (Bucket{0.046875, 0}) || last != (Bucket{52, 5}) || b[len(b)-1] != (Bucket{math.Inf(1), 5}) {
		t.Fatalf("window = %+v … %+v, %+v", first, last, b[len(b)-1])
	}
	want := map[float64]float64{0.05078125: 1, 0.46875: 1, 0.5: 3, 4.5: 3, 5: 4, 48: 4}
	for i, bk := range b {
		if i > 0 && !(bk.Upper > b[i-1].Upper && bk.Count >= b[i-1].Count) {
			t.Fatalf("bucket %d = %+v after %+v: not ascending and cumulative", i, bk, b[i-1])
		}
		if w, ok := want[bk.Upper]; ok && bk.Count != w {
			t.Errorf("le=%v: count %v, want %v", bk.Upper, bk.Count, w)
		}
	}
	// rank 2.5 of 5: 1.5 of the 2 in (0.46875,0.5] → 0.46875 + 0.03125*0.75
	if got := BucketQuantile(0.5, b); got != 0.4921875 {
		t.Errorf("median = %v, want 0.4921875", got)
	}
	if got := h.Quantile(0.5); got != 0.4921875 {
		t.Errorf("Quantile(0.5) = %v, want the BucketQuantile estimate", got)
	}
}

// buckets returns h's cumulative buckets over its own exposition window.
func buckets(h *Histogram) []Bucket {
	var c counts
	c.add(h)
	return c.buckets(c.window())
}

// TestHistogramVecQuantile: the family quantile merges every series and
// equals the quantile of one histogram holding all their observations.
func TestHistogramVecQuantile(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("t_routes", "", "route")
	all := NewHistogram()
	for _, o := range []struct {
		route string
		v     float64
	}{{"/a", 0.5}, {"/a", 1.5}, {"/b", 1.5}, {"/b", 99}} {
		v.With(o.route).Observe(o.v)
		all.Observe(o.v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99, 1} {
		if got, want := v.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("q=%v: family %v, one histogram %v", q, got, want)
		}
	}
	// rank 2 of 4: 1 of the 2 in (1.375,1.5] → 1.4375; the top clamps to
	// the maximum, not the bound 104.
	if got := v.Quantile(0.5); got != 1.4375 {
		t.Errorf("median = %v, want 1.4375", got)
	}
	if got := v.Quantile(1); got != 99 {
		t.Errorf("q=1: %v, want the maximum 99", got)
	}
	// An empty series does not disturb the clamp; an empty family is NaN.
	v.With("/idle")
	if got := v.Quantile(1); got != 99 {
		t.Errorf("q=1 with an empty series: %v, want 99", got)
	}
	if got := r.HistogramVec("t_empty", "", "route").Quantile(0.99); !math.IsNaN(got) {
		t.Errorf("quantile of empty family = %v, want NaN", got)
	}
}

// TestHistogramQuantileAccuracy compares in-process quantiles with the
// exact nearest-rank order statistics. Every estimate must lie in [min,
// max] and within 1/8 of the exact value, the layout's bucket width.
// The single value is the largest client latency of a recorded load
// step; an estimate reporting bucket upper bounds exceeds it, and a
// layout whose first bound is 0.5 ms cannot place the microsecond cases.
func TestHistogramQuantileAccuracy(t *testing.T) {
	src := rng.New(17)
	uniform := make([]float64, 5000)
	for i := range uniform {
		uniform[i] = 50e-6 + 100e-6*src.Float64()
	}
	lognormal := make([]float64, 5000)
	for i := range lognormal {
		v := math.Exp(math.Log(316e-6) + 1.15*src.NormFloat64())
		lognormal[i] = math.Max(10e-6, math.Min(10e-3, v))
	}
	var ints []float64
	for n := 2; n <= 16; n++ {
		ints = append(ints, float64(n))
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"single 4.817472ms", []float64{4817472e-9}},
		{"uniform 50-150us", uniform},
		{"lognormal 10us-10ms", lognormal},
		{"integers 2-16", ints},
	} {
		h := NewHistogram()
		for _, v := range c.vals {
			h.Observe(v)
		}
		sorted := append([]float64(nil), c.vals...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		if h.Quantile(0) != lo || h.Max() != hi {
			t.Errorf("%s: q=0, max = %v, %v, want %v, %v", c.name, h.Quantile(0), h.Max(), lo, hi)
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(sorted))))
			exact := sorted[max(rank, 1)-1]
			got := h.Quantile(q)
			if got < lo || got > hi || math.Abs(got-exact) > exact/8 {
				t.Errorf("%s: q=%v: estimate %.6g, exact %.6g, range [%.6g, %.6g]", c.name, q, got, exact, lo, hi)
			}
		}
	}
}
