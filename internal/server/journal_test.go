package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bionav/internal/faults"
	"bionav/internal/journal"
)

// journaledServer builds a test server writing to a journal in dir.
func journaledServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, *journal.Journal) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	cfg.Journal = j
	srv, ts := testServer(t, cfg)
	return srv, ts, j
}

// exportSession fetches /api/export for one session.
func exportSession(t *testing.T, ts, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts + "/api/export?session=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestJournalRecoverRoundTrip is the in-process half of the chaos
// contract: a journaled session abandoned without a drain (modeling a
// crash) recovers byte-identically — same ID, same export — and the ID
// sequence resumes past every journaled session.
func TestJournalRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, ts, j := journaledServer(t, dir, Config{})
	id, root := startSession(t, srv, ts.URL)

	if resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": root}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %d %s", resp.StatusCode, raw["error"])
	}
	if resp, err := http.Get(ts.URL + "/api/results?session=" + id + "&node=" + itoa(root)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %v %v", resp.StatusCode, err)
	}
	if resp, raw := postJSON(t, ts.URL+"/api/backtrack", map[string]any{"session": id}); resp.StatusCode != http.StatusOK {
		t.Fatalf("backtrack: %d %s", resp.StatusCode, raw["error"])
	}
	code, before := exportSession(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("export before: %d", code)
	}
	keywords := queryTerm(srv)

	// Crash: no drain, no checkpoint — the journal file is all that's left.
	j.Close()
	ts.Close()

	srv2, ts2, _ := journaledServer(t, dir, Config{})
	n, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	code, after := exportSession(t, ts2.URL, id)
	if code != http.StatusOK {
		t.Fatalf("export after recovery: %d", code)
	}
	if before != after {
		t.Fatalf("recovered session diverged:\n%s\nvs\n%s", before, after)
	}
	if got := srv2.met.recovered.Value(); got != 1 {
		t.Fatalf("bionav_recovered_sessions_total = %v, want 1", got)
	}

	// A fresh session must not reuse the recovered ID's sequence number.
	resp, raw := postJSON(t, ts2.URL+"/api/query", map[string]string{"keywords": keywords})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: %d %s", resp.StatusCode, raw["error"])
	}
	newID := strings.Trim(string(raw["session"]), `"`)
	if newID == id {
		t.Fatalf("new session reused recovered ID %s", id)
	}
}

// TestJournalRecoverSkips: sessions with a close record, sessions whose
// newest record predates the TTL, and action records with no create are
// all skipped — but still advance the ID sequence.
func TestJournalRecoverSkips(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	old := time.Now().Add(-time.Hour).UnixNano()
	recs := []journal.Record{
		{Type: journal.TypeCreate, Session: "s00000001", At: now, Keywords: "x", Policy: "heuristic"},
		{Type: journal.TypeClose, Session: "s00000001", At: now},
		{Type: journal.TypeCreate, Session: "s00000002", At: old, Keywords: "x", Policy: "heuristic"},
		{Type: journal.TypeAction, Session: "s00000003", At: now, Action: []byte(`{"kind":"BACKTRACK"}`)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	srv, ts, _ := journaledServer(t, dir, Config{SessionTTL: 30 * time.Minute})
	n, err := srv.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered %d sessions, want 0 (closed, expired, uncreated)", n)
	}
	// The next registered session must be s00000004: even skipped sessions
	// reserve their sequence numbers.
	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw["error"])
	}
	if id := strings.Trim(string(raw["session"]), `"`); id != "s00000004" {
		t.Fatalf("next session ID = %s, want s00000004", id)
	}
}

// TestFaultJournalRecoverMiss: a session that fails to rebuild (injected
// at faults.SiteJournalRecover) is counted and skipped, never fatal, and
// the other sessions still recover.
func TestFaultJournalRecoverMiss(t *testing.T) {
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	srv, ts, j := journaledServer(t, dir, Config{})
	idA, _ := startSession(t, srv, ts.URL)
	idB, rootB := startSession(t, srv, ts.URL)
	if resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": idB, "node": rootB}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %d %s", resp.StatusCode, raw["error"])
	}
	j.Close()
	ts.Close()

	// AfterN(1): the first recoverSession (sorted order: idA) passes, the
	// second (idB) fails.
	faults.Arm(faults.SiteJournalRecover, faults.AfterN(1), nil)
	srv2, ts2, _ := journaledServer(t, dir, Config{})
	n, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if got := srv2.met.recoveryErrors.Value(); got != 1 {
		t.Fatalf("bionav_recovery_errors_total = %v, want 1", got)
	}
	if code, _ := exportSession(t, ts2.URL, idB); code != http.StatusNotFound {
		t.Fatalf("faulted session %s should be gone, export = %d", idB, code)
	}
	if code, _ := exportSession(t, ts2.URL, idA); code != http.StatusOK {
		t.Fatalf("surviving session %s should export, got %d", idA, code)
	}
}

// TestRecoverMaxSessionsKeepsMostRecentlyUsed: when the journal holds
// more live sessions than MaxSessions, recovery keeps the ones used last
// before the crash, whatever their IDs, and journals the others closed,
// so the next recovery skips them too.
func TestRecoverMaxSessionsKeepsMostRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	kw := testDataset().Corpus.At(0).Terms[0] // queryTerm's keyword
	now := time.Now()
	// Seconds since each session's last use: neither ascending nor
	// descending in ID order.
	for _, c := range []struct {
		id  string
		ago int
	}{{"s00000001", 2}, {"s00000002", 5}, {"s00000003", 1}, {"s00000004", 4}, {"s00000005", 3}} {
		at := now.Add(-time.Duration(c.ago) * time.Second).UnixNano()
		if err := j.Append(journal.Record{Type: journal.TypeCreate, Session: c.id, At: at, Keywords: kw, Policy: "heuristic"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	srv, ts, j2 := journaledServer(t, dir, Config{MaxSessions: 2})
	if n, err := srv.Recover(context.Background()); err != nil || n != 5 {
		t.Fatalf("recover: n=%d err=%v, want 5 rebuilt", n, err)
	}
	if got := srv.met.evicted.Value(); got != 3 {
		t.Fatalf("bionav_sessions_evicted_total = %v, want 3", got)
	}
	live := map[string]bool{"s00000001": true, "s00000003": true}
	for _, id := range []string{"s00000001", "s00000002", "s00000003", "s00000004", "s00000005"} {
		want := http.StatusNotFound
		if live[id] {
			want = http.StatusOK
		}
		if code, _ := exportSession(t, ts.URL, id); code != want {
			t.Fatalf("export %s after recovery: %d, want %d", id, code, want)
		}
	}
	j2.Close()
	ts.Close()

	srv3, ts3, _ := journaledServer(t, dir, Config{})
	if n, err := srv3.Recover(context.Background()); err != nil || n != 2 {
		t.Fatalf("second recover: n=%d err=%v, want the 2 survivors", n, err)
	}
	for id := range live {
		if code, _ := exportSession(t, ts3.URL, id); code != http.StatusOK {
			t.Fatalf("export %s after second recovery: %d", id, code)
		}
	}
}

// TestFaultJournalAppendDoesNotFailRequest: availability over durability
// — with the journal's append site armed, navigation actions still
// succeed; once the fault clears, the next mutation re-journals the
// missed suffix so nothing is lost from the durable log.
func TestFaultJournalAppendDoesNotFailRequest(t *testing.T) {
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	srv, ts, j := journaledServer(t, dir, Config{})
	id, root := startSession(t, srv, ts.URL)

	faults.Arm(faults.SiteJournalAppend, faults.Always(), nil)
	resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": root})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand failed under journal fault: %d %s", resp.StatusCode, raw["error"])
	}
	faults.Disarm(faults.SiteJournalAppend)

	// The next action retries the whole un-journaled suffix.
	if resp, raw := postJSON(t, ts.URL+"/api/backtrack", map[string]any{"session": id}); resp.StatusCode != http.StatusOK {
		t.Fatalf("backtrack: %d %s", resp.StatusCode, raw["error"])
	}
	_, before := exportSession(t, ts.URL, id)
	j.Close()
	ts.Close()

	srv2, ts2, _ := journaledServer(t, dir, Config{})
	if n, err := srv2.Recover(context.Background()); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	if _, after := exportSession(t, ts2.URL, id); before != after {
		t.Fatalf("retried suffix lost:\n%s\nvs\n%s", before, after)
	}
}

// TestDrainShedsAndCheckpoints walks the graceful-shutdown ladder: after
// Drain, /readyz reports draining, new API requests shed with
// Retry-After, and the journal is checkpointed to a single compact
// segment that still recovers every live session.
func TestDrainShedsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := journaledServer(t, dir, Config{})
	id, root := startSession(t, srv, ts.URL)
	if resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": root}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expand: %d %s", resp.StatusCode, raw["error"])
	}
	_, before := exportSession(t, ts.URL, id)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// Idempotent: a second Drain (journal already closed) must not error.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz while draining: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp2, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("API while draining: %d %s", resp2.StatusCode, raw)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("shed request missing Retry-After")
	}

	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1: %v", len(segs), segs)
	}
	ts.Close()

	srv2, ts2, _ := journaledServer(t, dir, Config{})
	if n, err := srv2.Recover(context.Background()); err != nil || n != 1 {
		t.Fatalf("recover from checkpoint: n=%d err=%v", n, err)
	}
	if _, after := exportSession(t, ts2.URL, id); before != after {
		t.Fatalf("checkpointed session diverged:\n%s\nvs\n%s", before, after)
	}
}

// TestDrainReleasesQueuedWaiters: a request queued for an in-flight slot
// is shed the moment the drain begins, instead of holding its QueueWait.
func TestDrainReleasesQueuedWaiters(t *testing.T) {
	srv, ts := testServer(t, Config{MaxInFlight: 1, QueueWait: 30 * time.Second})
	// Occupy the only slot.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/stats")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Let the request reach the queue, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("queued waiter got %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter not released by drain")
	}
}

// TestReadPathsRefreshTTL pins the bugfix that read-only lookups count as
// session activity: polling /api/export keeps a session alive well past
// its idle TTL.
func TestReadPathsRefreshTTL(t *testing.T) {
	srv, ts := testServer(t, Config{SessionTTL: 300 * time.Millisecond})
	id, _ := startSession(t, srv, ts.URL)
	deadline := time.Now().Add(900 * time.Millisecond) // 3× the TTL
	for time.Now().Before(deadline) {
		if code, _ := exportSession(t, ts.URL, id); code != http.StatusOK {
			t.Fatalf("session expired under an active reader: export = %d", code)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// And once the reads stop, the TTL still applies.
	time.Sleep(400 * time.Millisecond)
	if code, _ := exportSession(t, ts.URL, id); code != http.StatusNotFound {
		t.Fatalf("idle session survived its TTL: export = %d", code)
	}
}

// TestJournalStatsRows: /api/stats surfaces the durability counters.
func TestJournalStatsRows(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := journaledServer(t, dir, Config{})
	resp, raw := getJSONMap(t, ts.URL+"/api/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	for _, key := range []string{"recoveredSessions", "recoveryErrors", "journalDir", "journalTornTails"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	if got := strings.Trim(string(raw["journalDir"]), `"`); got != dir {
		t.Errorf("journalDir = %q, want %q", got, dir)
	}
}

func getJSONMap(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, raw
}

func itoa(n int) string { return strconv.Itoa(n) }
