package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bionav/internal/faults"
	"bionav/internal/journal"
)

// startSession runs a query and returns the session ID and the root node.
func startSession(t *testing.T, srv *Server, ts string) (string, int) {
	t.Helper()
	resp, raw := postJSON(t, ts+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Session string `json:"session"`
		Tree    struct {
			Node int `json:"node"`
		} `json:"tree"`
	}
	reencode(t, raw, &state)
	return state.Session, state.Tree.Node
}

// TestFaultExpandDegradesWithinBudget is the headline acceptance test:
// with the DP stalled by a failpoint, EXPAND answers within the
// configured budget, flagged "degraded": true, and the same session
// keeps working afterwards (follow-up EXPAND and BACKTRACK succeed).
func TestFaultExpandDegradesWithinBudget(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv, ts := testServer(t, Config{ExpandBudget: 50 * time.Millisecond})
	id, root := startSession(t, srv, ts.URL)

	faults.Arm(faults.SiteDP, faults.Always(), faults.SleepAction(30*time.Second))
	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": root})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("EXPAND ignored its %v budget (took %v)", srv.cfg.ExpandBudget, elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degradedReason"`
		Tree           struct {
			Children []struct {
				Node       int  `json:"node"`
				Expandable bool `json:"expandable"`
			} `json:"children"`
		} `json:"tree"`
	}
	reencode(t, raw, &state)
	if !state.Degraded || state.DegradedReason == "" {
		t.Fatalf("response not flagged degraded: %+v", state)
	}
	if len(state.Tree.Children) == 0 {
		t.Fatal("degraded EXPAND revealed no children")
	}
	faults.Disarm(faults.SiteDP)

	// The session survived: a normal follow-up EXPAND and two BACKTRACKs.
	next := -1
	for _, c := range state.Tree.Children {
		if c.Expandable {
			next = c.Node
			break
		}
	}
	if next == -1 {
		t.Fatal("no expandable child after degraded EXPAND")
	}
	resp, raw = postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": next})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up expand status %d: %s", resp.StatusCode, raw["error"])
	}
	if _, ok := raw["degraded"]; ok {
		t.Fatal("follow-up EXPAND degraded with no pressure")
	}
	for i := 0; i < 2; i++ {
		resp, raw = postJSON(t, ts.URL+"/api/backtrack", map[string]any{"session": id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backtrack %d status %d: %s", i, resp.StatusCode, raw["error"])
		}
	}

	// The counters saw it.
	st := getStats(t, ts.URL)
	if st["degradedExpands"] != 1 || st["expandTimeouts"] != 1 {
		t.Fatalf("stats = %v, want 1 degraded / 1 timeout", st)
	}
}

// TestFaultPanicReleasesSessionLock: a panic while a handler holds the
// session lock becomes a 500 in the recovery middleware, and the session
// stays usable, because every handler releases the lock by defer. The
// journal append after an EXPAND panics once, under the session lock;
// the next BACKTRACK and SHOWRESULTS on the same session must answer
// within a 5 s client deadline. A panicking DP never gets that far: the
// EXPAND falls back to the static cut and answers 200, degraded.
func TestFaultPanicReleasesSessionLock(t *testing.T) {
	t.Cleanup(faults.Reset)
	j, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv := New(testDataset(), Config{Journal: j})
	ts := httptest.NewServer(Middleware(srv.Handler(), nil))
	// Close waits for every handler to return, and a handler blocked on a
	// leaked session lock never does: a failing run leaves the server up
	// rather than hang.
	t.Cleanup(func() {
		if !t.Failed() {
			ts.Close()
		}
	})
	id, root := startSession(t, srv, ts.URL)

	// panicOnce arms site with an action that panics on its first firing.
	panicOnce := func(site, msg string) *atomic.Bool {
		var fired atomic.Bool
		faults.Arm(site, faults.Always(), func(context.Context) error {
			if fired.CompareAndSwap(false, true) {
				panic(msg)
			}
			return nil
		})
		return &fired
	}
	client := &http.Client{Timeout: 5 * time.Second}
	do := func(method, url string, body any) (int, map[string]any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(method, url, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	expand := map[string]any{"session": id, "node": root}
	backtrack := map[string]any{"session": id}

	fired := panicOnce(faults.SiteDP, "injected DP panic")
	code, state := do(http.MethodPost, ts.URL+"/api/expand", expand)
	if !fired.Load() {
		t.Fatal("the DP failpoint never fired")
	}
	if reason, _ := state["degradedReason"].(string); code != http.StatusOK || state["degraded"] != true || !strings.Contains(reason, "panicked") {
		t.Fatalf("EXPAND with a panicking DP answered %d %v, want 200, degraded by the panic", code, state)
	}
	if st := getStats(t, ts.URL); st["degradedExpands"] != 1 {
		t.Fatalf("stats = %v, want 1 degraded EXPAND", st)
	}
	faults.Disarm(faults.SiteDP)
	if code, _ := do(http.MethodPost, ts.URL+"/api/backtrack", backtrack); code != http.StatusOK {
		t.Fatalf("BACKTRACK of the degraded EXPAND answered %d, want 200", code)
	}

	fired = panicOnce(journal.SiteAppend, "injected journal panic")
	if code, _ := do(http.MethodPost, ts.URL+"/api/expand", expand); code != http.StatusInternalServerError {
		t.Fatalf("EXPAND with a panicking journal append answered %d, want 500", code)
	}
	if !fired.Load() {
		t.Fatal("the journal append failpoint never fired")
	}
	if code, _ := do(http.MethodPost, ts.URL+"/api/backtrack", backtrack); code != http.StatusOK {
		t.Fatalf("BACKTRACK after the panic answered %d, want 200", code)
	}
	url := fmt.Sprintf("%s/api/results?session=%s&node=%d", ts.URL, id, root)
	if code, _ := do(http.MethodGet, url, nil); code != http.StatusOK {
		t.Fatalf("SHOWRESULTS after the panic answered %d, want 200", code)
	}
}

// TestFaultOverloadSheds503 saturates the in-flight semaphore with
// failpoint-stalled EXPANDs and checks that the over-limit request is
// shed with 503 + Retry-After while the stalled (in-limit) requests
// still complete successfully once released.
func TestFaultOverloadSheds503(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv, ts := testServer(t, Config{
		MaxInFlight:  2,
		QueueWait:    10 * time.Millisecond,
		RetryAfter:   3 * time.Second,
		ExpandBudget: time.Minute, // the stall is released manually, not by deadline
	})
	id, root := startSession(t, srv, ts.URL)
	id2, root2 := startSession(t, srv, ts.URL)

	// The DP parks inside the failpoint until we release it, holding the
	// request's semaphore slot the whole time.
	release := make(chan struct{})
	faults.Arm(faults.SiteDP, faults.Always(), func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	var wg sync.WaitGroup
	status := make([]int, 2)
	for i, req := range []map[string]any{
		{"session": id, "node": root},
		{"session": id2, "node": root2},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/api/expand", req)
			status[i] = resp.StatusCode
		}()
	}

	// Both slots taken ⇔ /readyz flips to 503 (it bypasses the limiter).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never reported saturation")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Over the limit: shed with 503 and the configured Retry-After hint.
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request got %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	// Liveness keeps answering even while the API is saturated.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Release the in-limit requests: they must finish with 200s.
	close(release)
	wg.Wait()
	for i, st := range status {
		if st != http.StatusOK {
			t.Fatalf("in-limit request %d finished %d, want 200", i, st)
		}
	}

	st := getStats(t, ts.URL)
	if st["shedRequests"] < 1 {
		t.Fatalf("stats = %v, want ≥1 shed", st)
	}
	// Back under the limit, readiness recovers.
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after release = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestProbesIdle: both probes answer 200 on an idle server.
func TestProbesIdle(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// getStats fetches /api/stats and returns the numeric counters.
func getStats(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out
}
