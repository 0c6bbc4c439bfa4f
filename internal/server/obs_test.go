package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bionav/internal/obs"
)

// TestMetricsEndpoint: /metrics serves the Prometheus exposition merging
// the server's own registry (exact per-instance counts) with the
// process-wide default registry.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := string(body)
	// Request metrics are recorded after the handler returns, so the
	// /metrics scrape sees exactly the one /api/stats request.
	if !strings.Contains(out, `bionav_http_requests_total{route="/api/stats",code="200"} 1`) {
		t.Errorf("missing exact stats-request count:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE bionav_http_request_seconds histogram",
		"# TYPE bionav_sessions_live gauge",
		"# TYPE bionav_queue_depth gauge",
		"# TYPE bionav_dp_fold_steps_total counter", // merged from obs.Default
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on
// the response, lands in the structured log line, and annotates the
// request's root trace span.
func TestRequestIDPropagation(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := testServer(t, Config{Logger: obs.NewLogger(&buf, nil), TraceSample: 1})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "req-test-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // synchronous: the log line is written on return

	if got := rec.Header().Get("X-Request-ID"); got != "req-test-123" {
		t.Fatalf("response X-Request-ID = %q", got)
	}
	logs := buf.String()
	if !strings.Contains(logs, `"msg":"request"`) || !strings.Contains(logs, `"request_id":"req-test-123"`) {
		t.Fatalf("request log missing id: %q", logs)
	}
	if !strings.Contains(logs, `"route":"/healthz"`) || !strings.Contains(logs, `"status":200`) {
		t.Fatalf("request log missing route/status: %q", logs)
	}
	// TraceSample=1 samples every request: the trace line carries the span
	// tree, whose root is annotated with the same request id.
	if !strings.Contains(logs, `"msg":"trace"`) {
		t.Fatalf("sampled trace line missing: %q", logs)
	}
	traceLine := logs[strings.Index(logs, `"msg":"trace"`):]
	if !strings.Contains(traceLine, `request_id`) || !strings.Contains(traceLine, "req-test-123") {
		t.Fatalf("trace spans missing request id: %q", traceLine)
	}
	if srv.met.traces.Value() != 1 {
		t.Fatalf("traces sampled = %d, want 1", srv.met.traces.Value())
	}

	// A request without the header gets a generated id.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec2.Header().Get("X-Request-ID") == "" {
		t.Fatal("no generated request id")
	}
}

// TestExpandDebugTrace: ?debug=trace on /api/expand returns the span
// tree of the EXPAND hot path — root request span, expand span, the
// policy's choose_cut, and the Opt-EdgeCut DP underneath.
func TestExpandDebugTrace(t *testing.T) {
	srv, ts := testServer(t, Config{})
	_, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	var sessionID string
	if err := json.Unmarshal(raw["session"], &sessionID); err != nil {
		t.Fatal(err)
	}

	_, raw = postJSON(t, ts.URL+"/api/expand?debug=trace", map[string]any{"session": sessionID, "node": 0})
	traceJSON, ok := raw["trace"]
	if !ok {
		t.Fatalf("no trace in response: %v", raw)
	}
	var trace obs.SpanSummary
	if err := json.Unmarshal(traceJSON, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Name != "POST /api/expand" {
		t.Fatalf("root span = %q", trace.Name)
	}
	expand := findSpan(&trace, "expand")
	if expand == nil {
		t.Fatalf("no expand span in %s", traceJSON)
	}
	if _, ok := expand.Attrs["revealed"]; !ok {
		t.Fatalf("expand span missing revealed attr: %+v", expand.Attrs)
	}
	if findSpan(expand, "choose_cut") == nil {
		t.Fatalf("no choose_cut span in %s", traceJSON)
	}
	if findSpan(expand, "opt_edgecut_dp") == nil {
		t.Fatalf("no opt_edgecut_dp span in %s", traceJSON)
	}

	// Without the flag the response carries no trace.
	_, raw = postJSON(t, ts.URL+"/api/expand", map[string]any{"session": sessionID, "node": 0})
	if _, ok := raw["trace"]; ok {
		t.Fatal("trace attached without debug=trace")
	}
}

// TestQueryDebugTrace: ?debug=trace on a cold /api/query splits the
// nav_tree span into the index search and the tree build; a repeat of the
// query hits the nav cache and runs neither.
func TestQueryDebugTrace(t *testing.T) {
	srv, ts := testServer(t, Config{})
	query := func() *obs.SpanSummary {
		t.Helper()
		_, raw := postJSON(t, ts.URL+"/api/query?debug=trace", map[string]string{"keywords": queryTerm(srv)})
		var trace obs.SpanSummary
		if err := json.Unmarshal(raw["trace"], &trace); err != nil {
			t.Fatalf("trace %s: %v", raw["trace"], err)
		}
		nav := findSpan(&trace, "nav_tree")
		if nav == nil {
			t.Fatalf("no nav_tree span in %+v", trace)
		}
		return nav
	}

	cold := query()
	if cold.Attrs["cache"] != "miss" {
		t.Fatalf("cold nav_tree attrs = %+v, want cache miss", cold.Attrs)
	}
	if findSpan(cold, "index_search") == nil {
		t.Fatalf("cold nav_tree has no index_search child: %+v", cold)
	}
	build := findSpan(cold, "navtree_build")
	if build == nil {
		t.Fatalf("cold nav_tree has no navtree_build child: %+v", cold)
	}
	for _, attr := range []string{"nodes", "attachments"} {
		if n, ok := build.Attrs[attr].(float64); !ok || n < 1 {
			t.Fatalf("navtree_build attr %s = %v, want a positive count", attr, build.Attrs[attr])
		}
	}

	warm := query()
	if warm.Attrs["cache"] != "hit" || len(warm.Children) != 0 {
		t.Fatalf("repeat nav_tree = %+v, want a cache hit with no children", warm)
	}
}

// findSpan walks the summary tree for a span by name.
func findSpan(s *obs.SpanSummary, name string) *obs.SpanSummary {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if found := findSpan(c, name); found != nil {
			return found
		}
	}
	return nil
}

// TestStatsGauges: /api/stats reads through the registry and reports the
// live-session and queue-depth gauges.
func TestStatsGauges(t *testing.T) {
	srv, ts := testServer(t, Config{})
	if _, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)}); raw["session"] == nil {
		t.Fatal("query failed")
	}
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var live int
	if err := json.Unmarshal(stats["sessions_live"], &live); err != nil || live != 1 {
		t.Fatalf("sessions_live = %s (err %v), want 1", stats["sessions_live"], err)
	}
	if _, ok := stats["queue_depth"]; !ok {
		t.Fatal("queue_depth missing from stats")
	}
	if _, ok := stats["sessionsEvicted"]; !ok {
		t.Fatal("sessionsEvicted missing from stats")
	}
}

// TestProbeHeaders: probe responses must be JSON and uncacheable.
func TestProbeHeaders(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "no-store") {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
}
