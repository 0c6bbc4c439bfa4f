package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"bionav"

	// Linked so their metrics are registered on obs.Default — exactly as in
	// the real binary, where the eutils-backed tools share the process.
	_ "bionav/internal/eutils"
)

func TestBuildServesDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ds := bionav.GenerateDemo(bionav.DemoConfig{Seed: 6, Concepts: 800, Citations: 150, MeanConcepts: 15})
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	app, err := build([]string{"-db", dir, "-addr", ":0"}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if app.addr != ":0" {
		t.Fatalf("addr = %q", app.addr)
	}
	ts := httptest.NewServer(app.handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if !strings.Contains(out.String(), "serving 800 concepts") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestBuildFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if _, err := build(nil, &out, nil); err == nil {
		t.Fatal("missing -db/-demo accepted")
	}
	if _, err := build([]string{"-demo", "-db", "x"}, &out, nil); err == nil {
		t.Fatal("conflicting flags accepted")
	}
	if _, err := build([]string{"-db", "/nonexistent-xyz"}, &out, nil); err == nil {
		t.Fatal("bad db accepted")
	}
	if _, err := build([]string{"-demo", "-journal", t.TempDir(), "-fsync", "sometimes"}, &out, nil); err == nil {
		t.Fatal("bad -fsync accepted")
	}
	if _, err := build([]string{"-demo", "-k", "36"}, &out, nil); err == nil {
		t.Fatal("heuristic -k above the Opt-EdgeCut limit accepted")
	}
}

// TestBuildJournalRecovery wires the -journal flag end to end: a session
// created on one build of the server survives — under its original ID —
// into a second build pointed at the same journal directory.
func TestBuildJournalRecovery(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := filepath.Join(t.TempDir(), "wal")
	var out bytes.Buffer
	app1, err := build([]string{"-demo", "-journal", dir, "-fsync", "off"}, &out, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(app1.handler)
	// Same default demo config as build's -demo path, so any of its terms
	// is a guaranteed hit.
	keywords := bionav.GenerateDemo(bionav.DemoConfig{}).Corpus.At(0).Terms[0]
	body := strings.NewReader(`{"keywords": "` + keywords + `"}`)
	resp, err := http.Post(ts1.URL+"/api/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || state.Session == "" {
		t.Fatalf("query: %d %+v", resp.StatusCode, state)
	}
	if err := app1.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	app2, err := build([]string{"-demo", "-journal", dir, "-fsync", "off"}, &out, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(app2.handler)
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/api/export?session=" + state.Session)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("session %s did not survive the restart: export = %d", state.Session, resp2.StatusCode)
	}
}

// metricCatalog is the documented metric set (docs/OBSERVABILITY.md).
// Every entry must appear on /metrics of a freshly built server; `make
// metrics-test` runs this against a real listener in CI.
var metricCatalog = []struct{ name, kind string }{
	{"bionav_build_info", "gauge"},
	{"bionav_dataset_epoch", "gauge"},
	{"bionav_dp_aborts_total", "counter"},
	{"bionav_dp_fold_steps_total", "counter"},
	{"bionav_dp_memo_hits_total", "counter"},
	{"bionav_dp_memo_misses_total", "counter"},
	{"bionav_dp_reduced_nodes", "histogram"},
	{"bionav_dp_scratch_gets_total", "counter"},
	{"bionav_eutils_backoff_seconds", "histogram"},
	{"bionav_eutils_requests_total", "counter"},
	{"bionav_expand_degraded_total", "counter"},
	{"bionav_expand_timeouts_total", "counter"},
	{"bionav_go_goroutines", "gauge"},
	{"bionav_http_request_seconds", "histogram"},
	{"bionav_http_requests_total", "counter"},
	{"bionav_ingest_batches_total", "counter"},
	{"bionav_ingest_citations_total", "counter"},
	{"bionav_ingest_seconds", "histogram"},
	{"bionav_journal_append_errors_total", "counter"},
	{"bionav_journal_appends_total", "counter"},
	{"bionav_journal_bytes_total", "counter"},
	{"bionav_journal_fsync_errors_total", "counter"},
	{"bionav_journal_fsyncs_total", "counter"},
	{"bionav_journal_torn_tails_total", "counter"},
	{"bionav_navcache_coalesced_total", "counter"},
	{"bionav_navcache_evictions_total", "counter"},
	{"bionav_navcache_hits_total", "counter"},
	{"bionav_navcache_misses_total", "counter"},
	{"bionav_process_start_time_seconds", "gauge"},
	{"bionav_queue_depth", "gauge"},
	{"bionav_recovered_sessions_total", "counter"},
	{"bionav_recovery_epoch_misses_total", "counter"},
	{"bionav_recovery_errors_total", "counter"},
	{"bionav_requests_shed_total", "counter"},
	{"bionav_sessions_evicted_total", "counter"},
	{"bionav_sessions_live", "gauge"},
	{"bionav_solve_component_seconds", "histogram"},
	{"bionav_solver_cache_evictions_total", "counter"},
	{"bionav_solver_cache_hits_total", "counter"},
	{"bionav_solver_cache_misses_total", "counter"},
	{"bionav_store_load_seconds", "histogram"},
	{"bionav_store_loads_total", "counter"},
	{"bionav_store_torn_tails_total", "counter"},
	{"bionav_traces_sampled_total", "counter"},
}

// TestMetricsCatalog boots the assembled server over a demo dataset and
// verifies every cataloged metric is exposed on /metrics with its
// documented type — the guard that keeps docs/OBSERVABILITY.md honest.
func TestMetricsCatalog(t *testing.T) {
	var out bytes.Buffer
	app, err := build([]string{"-demo"}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(app.handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	exposition := string(body)
	for _, m := range metricCatalog {
		if !strings.Contains(exposition, fmt.Sprintf("# TYPE %s %s\n", m.name, m.kind)) {
			t.Errorf("metric %s (%s) missing from /metrics", m.name, m.kind)
		}
	}

	// The debug handler exposes the same metrics next to pprof.
	dbg := httptest.NewServer(app.debugHandler)
	defer dbg.Close()
	dresp, err := http.Get(dbg.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if !strings.Contains(string(dbody), "# TYPE bionav_http_requests_total counter") {
		t.Error("debug /metrics missing server metrics")
	}
	presp, err := http.Get(dbg.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", presp.StatusCode)
	}
}
