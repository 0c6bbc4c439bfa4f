package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bionav/internal/faults"
)

// rawPost POSTs and returns the exact response bytes, for byte-level
// differential comparison between servers.
func rawPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestExpandAllParallelMatchesSerial runs the same navigation — query,
// then two rounds of batch EXPAND, whose solves fan out across
// goroutines — against one server, while a second server walks the same
// frontier one /api/expand at a time. The visible trees must match:
// parallel EXPAND is an implementation detail, never an observable one,
// and the batch keeps the sequential semantics.
func TestExpandAllParallelMatchesSerial(t *testing.T) {
	parSrv, parTS := testServer(t, Config{})
	seqSrv, seqTS := testServer(t, Config{})

	parID, _ := startSession(t, parSrv, parTS.URL)
	seqID, _ := startSession(t, seqSrv, seqTS.URL)

	for round := 1; round <= 2; round++ {
		if status, body := rawPost(t, parTS.URL+"/api/expandall", map[string]string{"session": parID}); status != http.StatusOK {
			t.Fatalf("round %d: expandall status %d: %s", round, status, body)
		}
		for _, node := range expandableNodes(t, seqSrv, seqID) {
			status, body := rawPost(t, seqTS.URL+"/api/expand", map[string]any{"session": seqID, "node": node})
			if status != http.StatusOK {
				t.Fatalf("round %d: single expand %d: status %d: %s", round, node, status, body)
			}
		}
	}

	if par, seq := sessionTree(t, parSrv, parID), sessionTree(t, seqSrv, seqID); par != seq {
		t.Fatalf("batch EXPAND tree diverged from one-at-a-time expands:\n batch %s\n singles %s", par, seq)
	}
}

// expandableNodes lists the session's expandable visible components in
// ascending order — the same frontier /api/expandall acts on.
func expandableNodes(t *testing.T, srv *Server, id string) []int {
	t.Helper()
	sess, err := srv.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var nodes []int
	at := sess.nav.Active()
	for _, r := range at.VisibleRoots() {
		if at.ComponentSize(r) > 1 {
			nodes = append(nodes, r)
		}
	}
	return nodes
}

// sessionTree renders a session's visible tree deterministically.
func sessionTree(t *testing.T, srv *Server, id string) string {
	t.Helper()
	sess, err := srv.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	at := sess.nav.Active()
	view := buildView(sess.snap, at.Nav(), sess.nav.Visualize(), at.Nav().Root())
	b, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentExpandStress hammers one server from many goroutines —
// sessions sharing a query (one cached tree) and sessions on distinct
// queries — mixing single EXPAND, batch EXPAND with its fanned-out
// solves, and BACKTRACK. Run under -race via `make parallel-test`; any
// status outside the navigation contract fails.
func TestConcurrentExpandStress(t *testing.T) {
	srv, ts := testServer(t, Config{})

	terms := []string{queryTerm(srv)}
	for i := 1; len(terms) < 4; i++ {
		cand := srv.live.Current().Corpus.At(i * 7).Terms[0]
		dup := false
		for _, s := range terms {
			dup = dup || s == cand
		}
		if !dup {
			terms = append(terms, cand)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	deadline := time.Now().Add(400 * time.Millisecond)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutines pair up on queries: shared cached tree underneath,
			// separate sessions on top.
			kw := terms[g%len(terms)]
			resp, err := http.Post(ts.URL+"/api/query", "application/json",
				strings.NewReader(fmt.Sprintf(`{"keywords":%q}`, kw)))
			if err != nil {
				errs <- err
				return
			}
			var state struct {
				Session string `json:"session"`
			}
			err = json.NewDecoder(resp.Body).Decode(&state)
			resp.Body.Close()
			if err != nil || state.Session == "" {
				errs <- fmt.Errorf("no session for %q: %v", kw, err)
				return
			}
			for time.Now().Before(deadline) {
				for _, req := range []struct {
					path string
					body any
				}{
					{"/api/expand", map[string]any{"session": state.Session, "node": 0}},
					{"/api/expandall", map[string]string{"session": state.Session}},
					{"/api/backtrack", map[string]any{"session": state.Session}},
				} {
					status, err := post(ts.URL+req.path, req.body)
					if err != nil {
						errs <- err
						return
					}
					switch status {
					case http.StatusOK, http.StatusNotFound, http.StatusUnprocessableEntity:
					default:
						errs <- fmt.Errorf("%s: status %d", req.path, status)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFaultSessionExpiredMidExpand stalls an EXPAND inside the DP while
// the session's TTL lapses and the sweeper reaps it: the finished EXPAND
// must answer with the clean "unknown or expired session" error, not a
// success for a session that no longer exists.
func TestFaultSessionExpiredMidExpand(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv, ts := testServer(t, Config{SessionTTL: 20 * time.Millisecond})
	id, root := startSession(t, srv, ts.URL)

	faults.Arm(faults.SiteDP, faults.Always(), faults.SleepAction(300*time.Millisecond))
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(map[string]any{"session": id, "node": root})
		resp, err := http.Post(ts.URL+"/api/expand", "application/json", bytes.NewReader(b))
		if err != nil {
			done <- result{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, body}
	}()

	// Let the EXPAND pass its lookup and park in the stalled DP, let the
	// TTL lapse, then trigger the sweeper with a fresh registration.
	time.Sleep(100 * time.Millisecond)
	faults.Disarm(faults.SiteDP) // the fresh session must not stall
	if status, err := post(ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)}); err != nil || status != http.StatusOK {
		t.Fatalf("sweep trigger query: status %d err %v", status, err)
	}
	if _, err := srv.lookup(id); err == nil {
		t.Fatal("stalled session survived its TTL")
	}

	res := <-done
	if res.status != http.StatusNotFound {
		t.Fatalf("in-flight EXPAND on reaped session: status %d body %s", res.status, res.body)
	}
	if !strings.Contains(string(res.body), "expired") {
		t.Fatalf("want a session-expired error, got %s", res.body)
	}
}
