package loadgen

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bionav/internal/obs"
)

// SweepConfig drives a capacity sweep: geometrically stepped offered
// load, with the knee judged against a p99 SLO and a shed-rate ceiling.
type SweepConfig struct {
	BaseRate    float64       // sessions/second of the first step (default 2)
	Factor      float64       // offered-rate multiplier per step (default 2)
	Steps       int           // number of steps (default 3)
	SLOp99      time.Duration // client p99 a sustainable step must stay under (default 500ms)
	MaxShedRate float64       // shed fraction a sustainable step may reach (default 0.01)
}

func (c *SweepConfig) fill() {
	if c.BaseRate <= 0 {
		c.BaseRate = 2
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.Steps <= 0 {
		c.Steps = 3
	}
	if c.SLOp99 <= 0 {
		c.SLOp99 = 500 * time.Millisecond
	}
	if c.MaxShedRate <= 0 {
		c.MaxShedRate = 0.01
	}
}

// ServerDeltas is the server-side view of one step: counter increments
// between the /metrics scrapes bracketing it.
type ServerDeltas struct {
	APIRequests float64       // bionav_http_requests_total over /api/ routes
	Shed        float64       // bionav_requests_shed_total
	Degraded    float64       // bionav_expand_degraded_total
	Timeouts    float64       // bionav_expand_timeouts_total
	P99         time.Duration // bionav_http_request_seconds interval p99 (0 when no samples)
}

// StepReport pairs the client-side measurements of a step with the
// matching server-side counter deltas.
type StepReport struct {
	Step   int
	Result *StepResult
	Server ServerDeltas
}

// ShedRate is the shed fraction of the step's requests (0 for an idle step).
func (s *StepReport) ShedRate() float64 {
	if s.Result.Requests.Total == 0 {
		return 0
	}
	return float64(s.Result.Requests.Shed) / float64(s.Result.Requests.Total)
}

// ErrorRate is the fraction of the step's requests that ended in a hard
// failure: errors plus timeouts. Shed and degraded responses are the
// server behaving as designed and are judged separately.
func (s *StepReport) ErrorRate() float64 {
	if s.Result.Requests.Total == 0 {
		return 0
	}
	return float64(s.Result.Requests.Error+s.Result.Requests.Timeout) / float64(s.Result.Requests.Total)
}

// Knee is the detected capacity point: the highest offered rate whose
// step met the SLO. Found is false when even the first step missed it.
type Knee struct {
	Found    bool
	Step     int
	Rate     float64
	P99      time.Duration
	ShedRate float64
}

// SweepReport is a full capacity sweep.
type SweepReport struct {
	Steps []StepReport
	Knee  Knee
}

// Sweep runs cfg.Steps offered-load steps, scraping /metrics around each
// so every step report carries both sides of the measurement, and
// detects the knee.
func (r *Runner) Sweep(ctx context.Context, sc SweepConfig) (*SweepReport, error) {
	sc.fill()
	rep := &SweepReport{}
	rate := sc.BaseRate
	for step := 0; step < sc.Steps; step++ {
		before, err := r.client.Scrape(ctx, "/metrics")
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep step %d: %w", step, err)
		}
		res, err := r.RunStep(ctx, step, rate)
		if err != nil {
			return nil, err
		}
		after, err := r.client.Scrape(ctx, "/metrics")
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep step %d: %w", step, err)
		}
		rep.Steps = append(rep.Steps, StepReport{
			Step:   step,
			Result: res,
			Server: serverDeltas(after.Delta(before)),
		})
		rate *= sc.Factor
	}
	rep.Knee = findKnee(rep.Steps, sc)
	return rep, nil
}

// serverDeltas extracts the step's server-side accounting from a scrape
// delta.
func serverDeltas(d *obs.MetricsSnapshot) ServerDeltas {
	// Requests and p99 over the /api/ routes only — the probe and scrape
	// traffic the harness itself generates must not dilute them.
	api := d.Where(func(labels map[string]string) bool {
		return strings.HasPrefix(labels["route"], "/api/")
	})
	return ServerDeltas{
		APIRequests: api.Total("bionav_http_requests_total"),
		Shed:        d.Total("bionav_requests_shed_total"),
		Degraded:    d.Total("bionav_expand_degraded_total"),
		Timeouts:    d.Total("bionav_expand_timeouts_total"),
		P99:         duration(api.Quantile("bionav_http_request_seconds", 0.99)),
	}
}

// findKnee returns the highest-rate step meeting the SLO criteria.
// Steps are offered in ascending rate, so the scan keeps the last pass.
// Errors and timeouts disqualify a step under the same ceiling as shed:
// a step whose requests failed outright is not demonstrated capacity,
// even if the (fast) failures kept p99 flattering.
func findKnee(steps []StepReport, sc SweepConfig) Knee {
	knee := Knee{}
	for i := range steps {
		s := &steps[i]
		p99 := s.Result.Quantile(0.99)
		if s.Result.Requests.Total == 0 || p99 > sc.SLOp99 ||
			s.ShedRate() > sc.MaxShedRate || s.ErrorRate() > sc.MaxShedRate {
			continue
		}
		knee = Knee{
			Found:    true,
			Step:     s.Step,
			Rate:     s.Result.OfferedRate,
			P99:      p99,
			ShedRate: s.ShedRate(),
		}
	}
	return knee
}
