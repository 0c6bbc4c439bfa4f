package loadgen

import (
	"sync"
	"testing"
	"time"

	"bionav/internal/obs"
)

// TestHistQuantile: a step's latency quantiles are interpolated within
// the bucket and clamped to the observed range; Max and Mean are exact.
func TestHistQuantile(t *testing.T) {
	col := &collector{hist: obs.NewHistogram()}
	// 1..1000 microseconds: quantiles are predictable to 1/16.
	for i := 1; i <= 1000; i++ {
		col.record(Call{Latency: time.Duration(i) * time.Microsecond})
	}
	res := &StepResult{Latency: col.hist}
	if res.Latency.Count() != 1000 {
		t.Fatalf("count = %d", res.Latency.Count())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Microsecond},
		{0.5, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{1.0, 1000 * time.Microsecond},
	} {
		got := res.Quantile(c.q)
		if d := got - c.want; d > c.want/16 || -d > c.want/16 {
			t.Errorf("q=%v: got %v, want %v within 1/16", c.q, got, c.want)
		}
	}
	if got := res.Quantile(1); got != 1000*time.Microsecond {
		t.Errorf("q=1: %v, want the maximum exactly", got)
	}
	if m := duration(res.Latency.Max()); m != 1000*time.Microsecond {
		t.Errorf("max = %v", m)
	}
	if m := duration(res.Latency.Mean()); m < 499*time.Microsecond || m > 502*time.Microsecond {
		t.Errorf("mean = %v, want ≈500µs", m)
	}
	empty := &StepResult{Latency: obs.NewHistogram()}
	if empty.Quantile(0.5) != 0 || duration(empty.Latency.Max()) != 0 {
		t.Error("empty step quantile and max must be 0")
	}
}

// TestHistConcurrent proves the step histogram loses no observations
// when every session records into it at once (and is exercised by -race).
func TestHistConcurrent(t *testing.T) {
	col := &collector{hist: obs.NewHistogram()}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				col.record(Call{Latency: time.Duration(w*per+i) * time.Microsecond})
			}
		}(w)
	}
	wg.Wait()
	if n := col.hist.Count(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
	if m := duration(col.hist.Max()); m != (workers*per-1)*time.Microsecond {
		t.Fatalf("max = %v, want %v", m, (workers*per-1)*time.Microsecond)
	}
	if got := col.counts().Total; got != workers*per {
		t.Fatalf("outcomes counted = %d, want %d", got, workers*per)
	}
}
