package obs

import (
	"math"
	"strings"
	"testing"
)

// scrape renders the registry and parses it back — the round trip every
// snapshot consumer depends on.
func scrape(t *testing.T, r *Registry) *MetricsSnapshot {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse own exposition: %v\n%s", err, b.String())
	}
	return snap
}

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_req_total", "requests", "route", "code").With("/api/q", "200").Add(7)
	r.CounterVec("t_req_total", "requests", "route", "code").With("/api/q", "503").Add(2)
	r.Gauge("t_live", "live").Set(5)
	r.GaugeVec("t_build_info", "build", "goversion", "policy").With("go1.x", "heuristic").Set(1)
	h := r.Histogram("t_lat_seconds", "latency")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(1e12) // beyond the layout's last bound, 2^34

	snap := scrape(t, r)
	if v, ok := snap.Value("t_req_total", map[string]string{"route": "/api/q", "code": "200"}); !ok || v != 7 {
		t.Errorf("counter series = %v, %v", v, ok)
	}
	if got := snap.Total("t_req_total"); got != 9 {
		t.Errorf("family total = %v, want 9", got)
	}
	if v, ok := snap.Value("t_live", nil); !ok || v != 5 {
		t.Errorf("gauge = %v, %v", v, ok)
	}
	if v, ok := snap.Value("t_build_info", map[string]string{"goversion": "go1.x", "policy": "heuristic"}); !ok || v != 1 {
		t.Errorf("build info = %v, %v", v, ok)
	}
	if got := snap.HistogramCount("t_lat_seconds"); got != 3 {
		t.Errorf("histogram count = %v, want 3", got)
	}
	// +Inf bucket parses and quantiles clamp to the largest finite bound.
	if got := snap.Quantile("t_lat_seconds", 0.99); got != 0.5 {
		t.Errorf("p99 = %v, want 0.5 (clamped)", got)
	}
	if got := snap.Quantile("t_lat_seconds", 0.5); got != 0.484375 {
		// rank 1.5 of 3: 0.5 of the 1 in (0.46875,0.5] → 0.46875+0.03125*0.5
		t.Errorf("p50 = %v, want 0.484375", got)
	}
	if got := snap.Quantile("t_absent", 0.5); !math.IsNaN(got) {
		t.Errorf("absent histogram quantile = %v, want NaN", got)
	}
}

func TestParseExpositionEscapesAndTimestamps(t *testing.T) {
	in := `# HELP t_x things
# TYPE t_x counter
t_x{path="a\"b\\c\nd"} 3 1700000000000
t_plain 4
`
	snap, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("t_x", map[string]string{"path": "a\"b\\c\nd"}); !ok || v != 3 {
		t.Errorf("escaped series = %v, %v", v, ok)
	}
	if v, ok := snap.Value("t_plain", nil); !ok || v != 4 {
		t.Errorf("plain = %v, %v", v, ok)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"t_x oops\n",
		"t_x{unclosed=\"v\n",
		"{} 4\n",
		"t_x 1 2 3\n",
	} {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed exposition %q", in)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_total", "", "route")
	c.With("/a").Add(10)
	h := r.Histogram("t_lat", "")
	h.Observe(0.5)

	before := scrape(t, r)

	c.With("/a").Add(5)
	c.With("/b").Add(3) // born between the scrapes
	h.Observe(1.5)
	h.Observe(1.5)

	after := scrape(t, r)
	d := after.Delta(before)

	if v, _ := d.Value("t_total", map[string]string{"route": "/a"}); v != 5 {
		t.Errorf("delta /a = %v, want 5", v)
	}
	if v, _ := d.Value("t_total", map[string]string{"route": "/b"}); v != 3 {
		t.Errorf("delta /b (new series) = %v, want 3", v)
	}
	if got := d.HistogramCount("t_lat"); got != 2 {
		t.Errorf("interval observations = %v, want 2", got)
	}
	// The interval distribution is the two 1.5s observations only: the
	// pre-existing 0.5 cancels out of every bucket.
	if got := d.Quantile("t_lat", 0.5); !(got > 1 && got <= 2) {
		t.Errorf("interval median = %v, want in (1,2]", got)
	}
	// Delta against nil is the snapshot itself.
	if v, _ := after.Delta(nil).Value("t_total", map[string]string{"route": "/a"}); v != 15 {
		t.Errorf("delta vs nil = %v, want 15", v)
	}
}

func TestSnapshotNamesAndSeries(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_total", "", "route").With("/a").Inc()
	r.CounterVec("t_total", "", "route").With("/b").Inc()
	snap := scrape(t, r)
	if got := len(snap.Series("t_total")); got != 2 {
		t.Errorf("series count = %d, want 2", got)
	}
	found := false
	for _, n := range snap.Names() {
		if n == "t_total" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing t_total", snap.Names())
	}
}

// checkHistogramExposition asserts the exposition rules of the named
// histogram family in one scrape: every series emits the same ascending
// le set ending in +Inf, its counts are cumulative, and its +Inf count
// equals its _count.
func checkHistogramExposition(t *testing.T, snap *MetricsSnapshot, name string) {
	t.Helper()
	series := make(map[string][]Bucket) // series → buckets in exposition order
	var first string
	for _, s := range snap.Series(name + "_bucket") {
		id := seriesOf(s)
		bound, ok := leBound(s)
		if !ok {
			t.Fatalf("%s: bucket without a valid le: %+v", name, s)
		}
		if first == "" {
			first = id
		}
		if bs := series[id]; len(bs) > 0 && (bound <= bs[len(bs)-1].Upper || s.Value < bs[len(bs)-1].Count) {
			t.Fatalf("%s: le=%v %v after %+v: not ascending and cumulative", id, bound, s.Value, bs[len(bs)-1])
		}
		series[id] = append(series[id], Bucket{Upper: bound, Count: s.Value})
	}
	for id, bs := range series {
		if !math.IsInf(bs[len(bs)-1].Upper, 1) {
			t.Errorf("%s: le set does not end in +Inf", id)
		}
		want := series[first]
		for i := range bs {
			if len(bs) != len(want) || bs[i].Upper != want[i].Upper {
				t.Fatalf("%s: le set differs from %s's", id, first)
			}
		}
	}
	for _, s := range snap.Series(name + "_count") {
		bs := series[Sample{Name: name + "_bucket", Labels: s.Labels}.key()]
		if len(bs) == 0 || bs[len(bs)-1].Count != s.Value {
			t.Errorf("%v: +Inf bucket of %v, _count %v", s.Labels, bs, s.Value)
		}
	}
}

// seriesOf names a bucket sample's series: its key without le.
func seriesOf(s Sample) string {
	labels := make(map[string]string)
	for k, v := range s.Labels {
		if k != "le" {
			labels[k] = v
		}
	}
	return Sample{Name: s.Name, Labels: labels}.key()
}

// TestScrapeRoundTrip scrapes one registry twice. Between the scrapes
// observations land below and above the first scrape's window and in a
// new series, so the le set widens. Delta then Quantile must equal
// BucketQuantile over a histogram that recorded only those observations.
func TestScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("t_lat_seconds", "", "route")
	for i := 1; i <= 20; i++ {
		v.With("/a").Observe(float64(i) * 1e-4) // 0.1 … 2 ms
		v.With("/b").Observe(float64(i) * 2e-4)
	}
	before := scrape(t, r)
	checkHistogramExposition(t, before, "t_lat_seconds")

	interval := NewHistogram()
	observe := func(route string, x float64) {
		v.With(route).Observe(x)
		interval.Observe(x)
	}
	for i := 1; i <= 30; i++ {
		observe("/a", float64(i)*1e-6)     // below the first window
		observe("/b", float64(i)*0.3e-3)   // inside and above it
		observe("/c", float64(i*i)*0.1e-3) // a new series, up to 90 ms
	}
	after := scrape(t, r)
	checkHistogramExposition(t, after, "t_lat_seconds")
	if len(after.Series("t_lat_seconds_bucket")) <= len(before.Series("t_lat_seconds_bucket")) {
		t.Fatal("the second scrape's le set did not widen")
	}

	d := after.Delta(before)
	checkHistogramExposition(t, d, "t_lat_seconds")
	if got := d.HistogramCount("t_lat_seconds"); got != 90 {
		t.Errorf("interval count = %v, want 90", got)
	}
	ref := buckets(interval)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := d.Quantile("t_lat_seconds", q), BucketQuantile(q, ref); got != want {
			t.Errorf("q=%v: delta quantile %v, interval histogram %v", q, got, want)
		}
	}
	// Where keeps the selected series of every family.
	a := d.Where(func(l map[string]string) bool { return l["route"] == "/a" })
	if got := a.HistogramCount("t_lat_seconds"); got != 30 {
		t.Errorf("/a interval count = %v, want 30", got)
	}
	if got := a.Quantile("t_lat_seconds", 1); got > 30e-6*1.125 {
		t.Errorf("/a interval max estimate = %v, want about 30µs", got)
	}
}
