package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact /metrics rendering: family order,
// series order, HELP/TYPE lines, histogram cumulative buckets over the
// non-empty window of the layout, label escaping. Deterministic output is
// the contract that makes the endpoint testable at all.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_requests_total", "Total requests.", "route", "code")
	c.With("/api/expand", "200").Add(4)
	c.With("/api/expand", "503").Add(1)
	c.With("/api/query", "200").Add(2)
	g := r.Gauge("test_sessions_live", "Live sessions.")
	g.Set(3)
	h := r.Histogram("test_latency_seconds", "Request latency.")
	h.Observe(0.2)  // (0.1875, 0.203125]: the window opens at its lower bound
	h.Observe(0.25) // boundary: lands in le="0.25"
	h.Observe(0.3)
	h.Observe(0x1p35) // beyond the layout: +Inf only, the window stays put
	e := r.Counter("test_weird_total", `needs "escaping"`+"\nand newlines")
	_ = e
	r.GaugeFunc("test_queue_depth", "Computed at scrape time.", func() float64 { return 7 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1875"} 0
test_latency_seconds_bucket{le="0.203125"} 1
test_latency_seconds_bucket{le="0.21875"} 1
test_latency_seconds_bucket{le="0.234375"} 1
test_latency_seconds_bucket{le="0.25"} 2
test_latency_seconds_bucket{le="0.28125"} 2
test_latency_seconds_bucket{le="0.3125"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 3.435973836875e+10
test_latency_seconds_count 4
# HELP test_queue_depth Computed at scrape time.
# TYPE test_queue_depth gauge
test_queue_depth 7
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{route="/api/expand",code="200"} 4
test_requests_total{route="/api/expand",code="503"} 1
test_requests_total{route="/api/query",code="200"} 2
# HELP test_sessions_live Live sessions.
# TYPE test_sessions_live gauge
test_sessions_live 3
# HELP test_weird_total needs "escaping"\nand newlines
# TYPE test_weird_total counter
test_weird_total 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBuckets pins the le-inclusive boundary rule: an
// observation equal to a bucket's upper bound counts into that bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	// Each value and the upper bound of the bucket it must land in.
	cases := []struct{ v, upper float64 }{
		{0.5, 0.5}, {1, 1}, {1.0000001, 1.125}, {2, 2}, {5, 5}, {5.1, 5.5}, {100, 104},
	}
	for _, c := range cases {
		h.Observe(c.v)
		i := bucketOf(c.v)
		if upper(i) != c.upper || upper(i-1) >= c.v {
			t.Errorf("%v: bucket (%v, %v], want upper bound %v", c.v, upper(i-1), upper(i), c.upper)
		}
		if h.counts[i].Load() == 0 {
			t.Errorf("%v: not counted in its bucket", c.v)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 114.6; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("sum = %v, want ≈%v", got, want)
	}
	if h.Quantile(0) != 0.5 || h.Max() != 100 {
		t.Errorf("q=0, max = %v, %v, want 0.5, 100", h.Quantile(0), h.Max())
	}
}

// TestHistogramLayout pins the one bucket layout: 8 sub-buckets per
// octave, each at most 1/8 of its lower bound wide; 2^-30 … 2^34 with the
// values outside in the end buckets; one bucket per integer 1–16.
func TestHistogramLayout(t *testing.T) {
	if upper(0) != 0x1p-30 || upper(numBounds-1) != 0x1p34 {
		t.Fatalf("range = %v … %v", upper(0), upper(numBounds-1))
	}
	for i := 1; i < numBounds; i++ {
		lo, hi := upper(i-1), upper(i)
		if !(hi > lo) || hi-lo > lo/8 {
			t.Fatalf("bucket %d = (%v, %v]: not ascending or wider than 1/8", i, lo, hi)
		}
		if bucketOf(hi) != i || bucketOf(math.Nextafter(hi, 0)) != i || bucketOf(math.Nextafter(lo, hi)) != i {
			t.Fatalf("bucket %d = (%v, %v]: its bound or interior maps elsewhere", i, lo, hi)
		}
		if octave := (i - 1) / 8; upper(octave*8) != math.Ldexp(1, octave-30) {
			t.Fatalf("bucket %d: octave %d does not start at a power of two", i, octave)
		}
	}
	for _, v := range []float64{0x1p-30, 1e-12, 0, -1, math.Inf(-1), math.NaN()} {
		if bucketOf(v) != 0 {
			t.Errorf("%v: bucket %d, want the lowest", v, bucketOf(v))
		}
	}
	for _, v := range []float64{math.Nextafter(0x1p34, math.Inf(1)), 1e12, math.Inf(1)} {
		if bucketOf(v) != numBounds {
			t.Errorf("%v: bucket %d, want +Inf", v, bucketOf(v))
		}
	}
	for n := 1; n <= 16; n++ {
		if upper(bucketOf(float64(n))) != float64(n) || bucketOf(float64(n)) == bucketOf(float64(n+1)) {
			t.Errorf("integer %d does not have a bucket of its own", n)
		}
	}
}

// TestConcurrentIncrements hammers a counter, gauge, and histogram from
// many goroutines; under -race this proves the registry's hot paths are
// properly synchronized, and the totals prove no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_gauge", "t")
	h := r.Histogram("test_hist", "t")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	if h.Quantile(0) != 0.25 || h.Max() != 0.25 {
		t.Errorf("histogram q=0, max = %v, %v, want 0.25", h.Quantile(0), h.Max())
	}
}

// TestGetOrCreate: re-registering a name returns the same metric;
// changing its shape panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "t")
	b := r.Counter("test_total", "different help is fine")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliases do not share state")
	}
	assertPanics(t, "kind mismatch", func() { r.Gauge("test_total", "t") })
	assertPanics(t, "label mismatch", func() { r.CounterVec("test_total", "t", "route") })
	assertPanics(t, "bad name", func() { r.Counter("bad name", "t") })
	assertPanics(t, "bad label", func() { r.CounterVec("test_other", "t", "bad label") })
	assertPanics(t, "arity", func() { r.CounterVec("test_v", "t", "a", "b").With("only-one") })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestMergedExposition: the server merges its registry with Default; the
// first registry wins family-name collisions and the output stays sorted.
func TestMergedExposition(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("test_a_total", "t").Inc()
	a.Counter("test_shared_total", "t").Add(5)
	b.Counter("test_b_total", "t").Inc()
	b.Counter("test_shared_total", "t").Add(99) // loses: a comes first
	var buf strings.Builder
	if err := WritePrometheus(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"test_a_total 1", "test_b_total 1", "test_shared_total 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("merged output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "test_shared_total 99") {
		t.Errorf("duplicate family leaked from second registry:\n%s", out)
	}
	if strings.Index(out, "test_a_total") > strings.Index(out, "test_b_total") {
		t.Errorf("merged families not sorted:\n%s", out)
	}
}
