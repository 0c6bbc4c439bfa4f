// Command bionav-loadgen is the closed-loop load harness: it drives a
// bionav server with Poisson-arriving simulated TOPDOWN users, sweeps the
// offered load across geometric steps, and reports a capacity curve with
// client-side latency quantiles (interpolated within the histogram's
// bucket, within 12.5% of exact) and the exact maximum, full outcome
// accounting, and the matching server-side counter deltas
// (BENCH_load.json, schema bionav-load/v1 — see docs/LOADGEN.md).
//
// With no -addr it self-hosts: the Table I workload corpus is synthesized
// in process, a real bionav server is started on a loopback port, and the
// sweep runs against it over HTTP — the full stack, minus the network.
//
//	bionav-loadgen -steps 3 -rate 2 -step-duration 2s -out BENCH_load.json
//	bionav-loadgen -addr http://db-host:8080 -rate 10
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"bionav/internal/core"
	"bionav/internal/loadgen"
	"bionav/internal/server"
	"bionav/internal/workload"
)

// realClock injects wall time into the loadgen library (which, per
// DET01, never reads it directly).
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav-loadgen: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bionav-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "", "target server base URL; empty self-hosts a workload server")
		scale        = fs.String("scale", "small", "self-hosted workload scale: small or full")
		policy       = fs.String("policy", "heuristic", "expansion policy of the self-hosted server: heuristic or static")
		seed         = fs.Uint64("seed", 2009, "master seed; session streams derive from it")
		rate         = fs.Float64("rate", 2, "offered sessions/second of the first step")
		rateFactor   = fs.Float64("rate-factor", 2, "offered-rate multiplier per step")
		steps        = fs.Int("steps", 3, "offered-load steps in the sweep")
		stepDur      = fs.Duration("step-duration", 2*time.Second, "launch window per step")
		sessionGrace = fs.Duration("session-grace", 15*time.Second, "extra time in-flight sessions get past the window")
		think        = fs.Duration("think", 200*time.Millisecond, "mean think time between user actions")
		actions      = fs.Int("actions", 6, "post-query actions per session")
		zipfSkew     = fs.Float64("zipf", 1.07, "query-popularity Zipf skew")
		sloP99       = fs.Duration("slo-p99", 500*time.Millisecond, "client p99 a sustainable step must stay under")
		maxShedRate  = fs.Float64("max-shed-rate", 0.01, "shed fraction a sustainable step may reach")
		queryPool    = fs.String("queries", "", "comma-separated query pool, popularity-ranked (default: Table I keywords, or the self-hosted workload's)")
		out          = fs.String("out", "-", "BENCH_load.json path, or - for stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// server.Config turns an unknown name into the default policy; refuse
	// it here, as bionav-server does, so a sweep never runs another one.
	if _, err := core.PolicyByName(*policy, 0); err != nil {
		return err
	}

	base := *addr
	queries := tableIKeywords()
	if base == "" {
		var stop func()
		var err error
		base, queries, stop, err = selfHost(stderr, *scale, *policy)
		if err != nil {
			return err
		}
		defer stop()
	}
	// An external target's corpus may not contain the Table I terms (every
	// query would 404 and count as an error, hiding the curve) — -queries
	// overrides the pool with terms the target actually matches.
	if *queryPool != "" {
		queries = queries[:0]
		for _, q := range strings.Split(*queryPool, ",") {
			if q = strings.TrimSpace(q); q != "" {
				queries = append(queries, q)
			}
		}
	}

	runner, err := loadgen.NewRunner(loadgen.Config{
		Seed:         *seed,
		Queries:      queries,
		ZipfSkew:     *zipfSkew,
		Actions:      *actions,
		Think:        *think,
		StepDuration: *stepDur,
		SessionGrace: *sessionGrace,
	}, loadgen.NewClient(base, &http.Client{}, realClock{}), realClock{})
	if err != nil {
		return err
	}

	sc := loadgen.SweepConfig{
		BaseRate:    *rate,
		Factor:      *rateFactor,
		Steps:       *steps,
		SLOp99:      *sloP99,
		MaxShedRate: *maxShedRate,
	}
	fmt.Fprintf(stderr, "sweeping %d steps from %.3g sessions/s against %s\n", *steps, *rate, base)
	rep, err := runner.Sweep(ctx, sc)
	if err != nil {
		return err
	}
	for _, s := range rep.Steps {
		fmt.Fprintf(stderr, "step %d: offered %.3g/s, %d sessions, %d requests (ok %d, shed %d, err %d), client p99 %v\n",
			s.Step, s.Result.OfferedRate, s.Result.Sessions, s.Result.Requests.Total,
			s.Result.Requests.OK, s.Result.Requests.Shed, s.Result.Requests.Error,
			s.Result.Quantile(0.99).Round(time.Microsecond))
	}
	if rep.Knee.Found {
		fmt.Fprintf(stderr, "knee: %.3g sessions/s (step %d, p99 %v, shed %.2g%%)\n",
			rep.Knee.Rate, rep.Knee.Step, rep.Knee.P99.Round(time.Microsecond), 100*rep.Knee.ShedRate)
	} else {
		fmt.Fprintln(stderr, "knee: not found — every step missed the SLO")
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return runner.WriteReport(w, sc, rep)
}

// selfHost synthesizes the workload corpus, boots a real server over it
// on a loopback port, and returns the base URL, the popularity-ranked
// query pool, and a shutdown func.
func selfHost(stderr io.Writer, scale, policy string) (string, []string, func(), error) {
	var cfg workload.Config
	switch scale {
	case "small":
		cfg = workload.SmallConfig()
	case "full":
		cfg = workload.DefaultConfig()
	default:
		return "", nil, nil, fmt.Errorf("unknown -scale %q (want small or full)", scale)
	}
	t0 := time.Now()
	w, err := workload.Generate(cfg)
	if err != nil {
		return "", nil, nil, err
	}
	fmt.Fprintf(stderr, "synthesized %q workload in %v: %d concepts, %d citations\n",
		scale, time.Since(t0).Round(time.Millisecond), w.Dataset.Tree.Len(), w.Dataset.Corpus.Len())

	srv := server.New(w.Dataset, server.Config{
		Policy: policy,
		// The harness opens far more sessions than an interactive deploy;
		// LRU eviction mid-run would surface as spurious session-not-found
		// errors, so give the table headroom instead.
		MaxSessions: 1 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() { _ = hs.Close() }
	queries := make([]string, 0, len(w.Queries))
	for i := range w.Queries {
		queries = append(queries, w.Queries[i].Spec.Keyword)
	}
	return "http://" + ln.Addr().String(), queries, stop, nil
}

// tableIKeywords is the external-target query pool: the paper's Table I
// queries, popularity-ranked in published order.
func tableIKeywords() []string {
	specs := workload.TableI()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Keyword
	}
	return out
}
