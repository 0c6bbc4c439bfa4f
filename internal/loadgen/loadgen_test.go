package loadgen_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/loadgen"
	"bionav/internal/rng"
	"bionav/internal/server"
	"bionav/internal/store"
)

// realClock is the wall clock; only tests and package main may use it
// (the library takes it injected, per DET01).
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

// testTarget boots a real server over a small deterministic dataset and
// returns a runner aimed at it.
func testTarget(t *testing.T, scfg server.Config, lcfg loadgen.Config) (*server.Server, *loadgen.Runner) {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 71, Nodes: 1000, TopLevel: 12, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 72, Citations: 300, MeanConcepts: 30, FirstID: 500, YearLo: 2000, YearHi: 2008,
	})
	ds := &store.Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)}
	if scfg.MaxSessions == 0 {
		scfg.MaxSessions = 10000 // LRU eviction mid-run would read as spurious 404s
	}
	srv := server.New(ds, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	if len(lcfg.Queries) == 0 {
		// A popularity-ranked pool of real index terms.
		for i := 0; i < 5; i++ {
			lcfg.Queries = append(lcfg.Queries, corp.At(i).Terms[0])
		}
	}
	r, err := loadgen.NewRunner(lcfg, loadgen.NewClient(ts.URL, nil, realClock{}), realClock{})
	if err != nil {
		t.Fatal(err)
	}
	return srv, r
}

func smokeConfig() loadgen.Config {
	return loadgen.Config{
		Seed:         42,
		Actions:      4,
		Think:        2 * time.Millisecond,
		StepDuration: 300 * time.Millisecond,
		SessionGrace: 10 * time.Second,
	}
}

// TestLoadgenSmoke is the `make load-test` gate: a fixed-seed open-loop
// step against an in-process server must complete with successful
// requests and no unexpected failures.
func TestLoadgenSmoke(t *testing.T) {
	_, r := testTarget(t, server.Config{}, smokeConfig())
	res, err := r.RunStep(context.Background(), 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions == 0 {
		t.Fatal("no sessions launched")
	}
	if res.Requests.OK == 0 {
		t.Fatalf("no successful requests: %+v", res.Requests)
	}
	if res.Requests.Error != 0 || res.Requests.Timeout != 0 {
		t.Fatalf("unexpected failures: %+v", res.Requests)
	}
	if got := res.Latency.Count(); got != res.Requests.Total {
		t.Fatalf("histogram holds %d observations, counted %d requests", got, res.Requests.Total)
	}
	if res.AchievedRPS() <= 0 {
		t.Fatalf("achieved rps = %v", res.AchievedRPS())
	}
}

// TestSessionTraceDeterminism pins DET01 end to end: the same seed yields
// the same action trace, request for request, run after run.
func TestSessionTraceDeterminism(t *testing.T) {
	_, r := testTarget(t, server.Config{}, smokeConfig())
	ctx := context.Background()
	first, counts := r.SessionTrace(ctx, rng.New(7))
	if counts.Error != 0 || counts.OK == 0 {
		t.Fatalf("trace session failed: %+v\n%v", counts, first)
	}
	for i := 0; i < 2; i++ {
		again, _ := r.SessionTrace(ctx, rng.New(7))
		if strings.Join(again, "\n") != strings.Join(first, "\n") {
			t.Fatalf("trace diverged on rerun %d:\n%v\nvs\n%v", i, first, again)
		}
	}
	// A different seed must explore differently — otherwise the "trace" is
	// insensitive to the stream and the determinism check above is vacuous.
	other, _ := r.SessionTrace(ctx, rng.New(1234))
	if strings.Join(other, "\n") == strings.Join(first, "\n") {
		t.Fatal("different seeds produced identical traces")
	}
	// The runner's per-(step, idx) derivation is itself stable.
	a, b := r.SessionSource(3, 17), r.SessionSource(3, 17)
	if a.Uint64() != b.Uint64() {
		t.Fatal("SessionSource not deterministic")
	}
}

// TestSweepCrossChecksServer runs a small sweep and verifies the two
// sides of the measurement agree: the server's /api/ request-counter
// delta equals the client's request total whenever no client-side
// timeout abandoned a request mid-flight.
func TestSweepCrossChecksServer(t *testing.T) {
	cfg := smokeConfig()
	cfg.StepDuration = 200 * time.Millisecond
	_, r := testTarget(t, server.Config{}, cfg)
	rep, err := r.Sweep(context.Background(), loadgen.SweepConfig{
		BaseRate: 15, Factor: 2, Steps: 2,
		SLOp99: 10 * time.Second, MaxShedRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("got %d steps", len(rep.Steps))
	}
	for _, s := range rep.Steps {
		if s.Result.Requests.Timeout != 0 {
			continue // an abandoned request may or may not have been served
		}
		if got, want := s.Server.APIRequests, float64(s.Result.Requests.Total); got != want {
			t.Errorf("step %d: server saw %v /api/ requests, client sent %v", s.Step, got, want)
		}
	}
	if !rep.Knee.Found || rep.Knee.Step != 1 {
		t.Errorf("knee = %+v, want the last step under a 10s SLO", rep.Knee)
	}

	var out strings.Builder
	if err := r.WriteReport(&out, loadgen.SweepConfig{SLOp99: 10 * time.Second, MaxShedRate: 1}, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+2+1 {
		t.Fatalf("report has %d lines, want header + 2 steps + knee:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], `"schema":"bionav-load/v1"`) {
		t.Fatalf("missing schema marker: %s", lines[0])
	}
}

// TestLoadgenDrainShed pins the drain contract from the client side: a
// step offered to a draining server is fully shed — every response is a
// 503 with Retry-After, classified as shed, never as error.
func TestLoadgenDrainShed(t *testing.T) {
	cfg := smokeConfig()
	cfg.StepDuration = 150 * time.Millisecond
	srv, r := testTarget(t, server.Config{}, cfg)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStep(context.Background(), 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.Total == 0 {
		t.Fatal("no requests issued")
	}
	if res.Requests.Shed != res.Requests.Total {
		t.Fatalf("draining server: %+v, want every request shed", res.Requests)
	}
	if res.Requests.Error != 0 {
		t.Fatalf("drain responses misclassified as errors: %+v", res.Requests)
	}
	if res.Aborted != res.Sessions {
		t.Fatalf("aborted %d of %d sessions, want all", res.Aborted, res.Sessions)
	}
}
