// Package loadgen is the closed-loop load harness for the bionav server:
// it drives the real HTTP API with simulated TOPDOWN users arriving in an
// open-loop Poisson process, measures per-request latency into an
// obs.Histogram, and classifies every response (ok / degraded / shed /
// timeout / error) against the server's overload contract.
//
// The arrival process is open-loop on purpose: sessions are launched on
// the offered schedule whether or not earlier requests have completed, so
// a slow server accumulates concurrency instead of silently throttling
// the generator — the coordinated-omission trap a purely closed-loop
// driver falls into (docs/LOADGEN.md). Within a session the user is
// closed-loop, as real users are: each action waits for the previous
// response plus a think time.
//
// Determinism discipline (DET01): the package never reads the wall clock
// or math/rand. Time comes from an injected Clock and randomness from
// internal/rng sources derived from (seed, step, session index), so a
// session's action trace is reproducible independent of scheduling.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bionav/internal/obs"
	"bionav/internal/rng"
)

// Clock abstracts wall time for the harness. Package main injects the
// real clock; tests may substitute their own.
type Clock interface {
	Now() time.Time
	// Sleep pauses for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// Config tunes the simulated workload.
type Config struct {
	Seed         uint64        // master seed; every session's stream derives from it
	Queries      []string      // keyword pool, popularity-ranked (index 0 most popular)
	ZipfSkew     float64       // query-popularity skew (default 1.07, web-like)
	Actions      int           // post-query actions per session (default 6)
	Think        time.Duration // mean think time between actions (default 200ms)
	StepDuration time.Duration // how long a step launches new sessions (default 2s)
	SessionGrace time.Duration // extra time in-flight sessions get to finish (default 15s)
}

func (c *Config) fill() error {
	if len(c.Queries) == 0 {
		return fmt.Errorf("loadgen: no queries in pool")
	}
	if c.ZipfSkew <= 0 {
		c.ZipfSkew = 1.07
	}
	if c.Actions <= 0 {
		c.Actions = 6
	}
	if c.Think <= 0 {
		c.Think = 200 * time.Millisecond
	}
	if c.StepDuration <= 0 {
		c.StepDuration = 2 * time.Second
	}
	if c.SessionGrace <= 0 {
		c.SessionGrace = 15 * time.Second
	}
	return nil
}

// Counts is the outcome accounting of a run: every request lands in
// exactly one bucket.
type Counts struct {
	Total    uint64 `json:"total"`
	OK       uint64 `json:"ok"`
	Degraded uint64 `json:"degraded"`
	Shed     uint64 `json:"shed"`
	Timeout  uint64 `json:"timeout"`
	Error    uint64 `json:"error"`
}

// collector aggregates one step's measurements; all fields are safe for
// concurrent update from every session goroutine.
type collector struct {
	hist     *obs.Histogram // seconds
	outcomes [numOutcomes]atomic.Uint64
	aborted  atomic.Uint64
}

func (c *collector) record(call Call) {
	c.hist.Observe(call.Latency.Seconds())
	c.outcomes[call.Outcome].Add(1)
}

func (c *collector) counts() Counts {
	n := Counts{
		OK:       c.outcomes[OutcomeOK].Load(),
		Degraded: c.outcomes[OutcomeDegraded].Load(),
		Shed:     c.outcomes[OutcomeShed].Load(),
		Timeout:  c.outcomes[OutcomeTimeout].Load(),
		Error:    c.outcomes[OutcomeError].Load(),
	}
	n.Total = n.OK + n.Degraded + n.Shed + n.Timeout + n.Error
	return n
}

// StepResult is the client-side view of one offered-load step.
type StepResult struct {
	OfferedRate float64        // sessions/second offered
	Sessions    int            // sessions launched
	Aborted     int            // sessions cut short by shed/timeout/error
	Requests    Counts         // per-outcome request accounting
	Latency     *obs.Histogram // request latency in seconds, every session's
	Elapsed     time.Duration  // wall time from first launch to last completion
}

// Quantile estimates the step's q-quantile request latency (0 when no
// request completed).
func (s *StepResult) Quantile(q float64) time.Duration {
	return duration(s.Latency.Quantile(q))
}

// duration converts a histogram estimate in seconds, mapping the NaN of
// an empty histogram to 0.
func duration(sec float64) time.Duration {
	if math.IsNaN(sec) || math.IsInf(sec, 0) {
		return 0
	}
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// AchievedRPS reports the measured request throughput of the step.
func (s *StepResult) AchievedRPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests.Total) / s.Elapsed.Seconds()
}

// Runner drives simulated users against one server.
type Runner struct {
	cfg    Config
	client *Client
	clock  Clock
	zipf   *rng.Zipf
}

// NewRunner validates the config and builds a runner.
func NewRunner(cfg Config, client *Client, clock Clock) (*Runner, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Runner{
		cfg:    cfg,
		client: client,
		clock:  clock,
		zipf:   rng.NewZipf(len(cfg.Queries), cfg.ZipfSkew),
	}, nil
}

// sessionSource derives the deterministic random stream of session idx of
// step: a pure function of (seed, step, idx), independent of scheduling.
func (r *Runner) sessionSource(step, idx int) *rng.Source {
	const golden = 0x9e3779b97f4a7c15
	return rng.New(r.cfg.Seed ^ uint64(step+1)*golden ^ uint64(idx+1)*0xd1b54a32d192ed03)
}

// RunStep offers rate sessions/second for the configured step duration:
// sessions launch on a Poisson schedule regardless of server speed, run
// their closed-loop action scripts concurrently, and the step returns
// once every launched session finishes (bounded by SessionGrace).
func (r *Runner) RunStep(ctx context.Context, step int, rate float64) (*StepResult, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive offered rate %v", rate)
	}
	col := &collector{hist: obs.NewHistogram()}
	arrivals := r.sessionSource(step, -1) // the arrival process has its own stream
	start := r.clock.Now()
	stop := start.Add(r.cfg.StepDuration)

	// Sessions run under a deadline past the launch window so a saturated
	// server cannot stall the step forever; the harness still observes the
	// slow responses as timeouts rather than omitting them.
	sctx, cancel := context.WithDeadline(ctx, stop.Add(r.cfg.SessionGrace))
	defer cancel()

	var wg sync.WaitGroup
	launched := 0
	for {
		gap := time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
		if err := r.clock.Sleep(ctx, gap); err != nil {
			break
		}
		if !r.clock.Now().Before(stop) {
			break
		}
		idx := launched
		launched++
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := r.newUser(r.sessionSource(step, idx))
			if aborted := u.run(sctx, col, nil); aborted {
				col.aborted.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := r.clock.Now().Sub(start)

	res := &StepResult{
		OfferedRate: rate,
		Sessions:    launched,
		Aborted:     int(col.aborted.Load()),
		Requests:    col.counts(),
		Latency:     col.hist,
		Elapsed:     elapsed,
	}
	if err := ctx.Err(); err != nil && launched == 0 {
		return res, fmt.Errorf("loadgen: step %d cancelled before first session: %w", step, err)
	}
	return res, nil
}

// SessionTrace runs a single simulated session synchronously and returns
// its action trace and request accounting — the determinism probe: equal
// sources against equal servers yield equal traces.
func (r *Runner) SessionTrace(ctx context.Context, src *rng.Source) ([]string, Counts) {
	col := &collector{hist: obs.NewHistogram()}
	var trace []string
	u := r.newUser(src)
	u.run(ctx, col, &trace)
	return trace, col.counts()
}

// SessionSource exposes the per-(step, idx) stream derivation so tests
// and callers can replay exactly the session the runner would launch.
func (r *Runner) SessionSource(step, idx int) *rng.Source {
	return r.sessionSource(step, idx)
}
