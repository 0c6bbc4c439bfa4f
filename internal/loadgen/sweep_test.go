package loadgen

import (
	"testing"
	"time"

	"bionav/internal/obs"
)

// step fabricates a StepReport at the given offered rate whose histogram
// holds one sample per request, all at latency lat.
func step(t *testing.T, n int, rate float64, lat time.Duration, counts Counts) StepReport {
	t.Helper()
	h := obs.NewHistogram()
	for i := uint64(0); i < counts.Total; i++ {
		h.Observe(lat.Seconds())
	}
	return StepReport{
		Step:   n,
		Result: &StepResult{OfferedRate: rate, Requests: counts, Latency: h},
	}
}

func TestFindKneeDisqualifiesErrorsAndShed(t *testing.T) {
	sc := SweepConfig{SLOp99: 100 * time.Millisecond, MaxShedRate: 0.01}
	sc.fill()
	ms := time.Millisecond

	steps := []StepReport{
		step(t, 0, 2, 5*ms, Counts{Total: 100, OK: 100}),
		// Fast failures keep p99 flattering; the error rate must still
		// disqualify the step (and likewise timeouts).
		step(t, 1, 4, 1*ms, Counts{Total: 100, OK: 40, Error: 60}),
		step(t, 2, 8, 1*ms, Counts{Total: 100, OK: 50, Timeout: 50}),
	}
	knee := findKnee(steps, sc)
	if !knee.Found || knee.Step != 0 {
		t.Fatalf("knee = %+v, want step 0 (error/timeout steps disqualified)", knee)
	}

	// Shed over the ceiling disqualifies; at or under it does not.
	steps = []StepReport{
		step(t, 0, 2, 5*ms, Counts{Total: 100, OK: 99, Shed: 1}),
		step(t, 1, 4, 5*ms, Counts{Total: 100, OK: 90, Shed: 10}),
	}
	knee = findKnee(steps, sc)
	if !knee.Found || knee.Step != 0 || knee.ShedRate != 0.01 {
		t.Fatalf("knee = %+v, want step 0 at shed rate 0.01", knee)
	}

	// p99 over SLO disqualifies; an all-failing sweep finds no knee.
	steps = []StepReport{
		step(t, 0, 2, 200*ms, Counts{Total: 100, OK: 100}),
		step(t, 1, 4, 1*ms, Counts{Total: 100, Error: 100}),
	}
	if knee = findKnee(steps, sc); knee.Found {
		t.Fatalf("knee = %+v, want none found", knee)
	}
}
