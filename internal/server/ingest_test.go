package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/navtree"
)

// ingestBody builds the /api/admin/ingest wire payload for one citation.
// Concepts are borrowed from an existing citation so they are guaranteed
// valid, strictly ascending hierarchy IDs.
func ingestBody(srv *Server, id int64, title string, terms ...string) map[string]any {
	base := srv.state().snap.Corpus.At(1)
	concepts := []int{int(base.Concepts[0]), int(base.Concepts[1])}
	return map[string]any{
		"citations": []map[string]any{{
			"id":       id,
			"title":    title,
			"authors":  []string{"Ingest T"},
			"year":     2009,
			"terms":    terms,
			"concepts": concepts,
		}},
	}
}

// TestIngestMidSession is the live-corpus acceptance contract: a batch
// ingested while a session is open must (a) leave that pinned session's
// /api/export byte-identical, (b) be visible to a fresh query without any
// dataset reload, and (c) invalidate nav-cache entries by epoch — old
// epochs only once no live session pins them, same-epoch entries keep
// hitting throughout.
func TestIngestMidSession(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)

	// Open a session and capture its state before the data moves.
	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Session string `json:"session"`
		Results int    `json:"results"`
	}
	reencode(t, raw, &state)
	if resp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": state.Session, "node": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, raw["error"])
	}
	code, before := exportSession(t, ts.URL, state.Session)
	if code != http.StatusOK {
		t.Fatalf("export before ingest: status %d", code)
	}

	// Ingest one citation matching the session's query term.
	resp, raw = postJSON(t, ts.URL+"/api/admin/ingest",
		ingestBody(srv, 900001, "fresh mid-session citation", term, "zzingestonly"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw["error"])
	}
	var ing struct {
		Epoch     uint64 `json:"epoch"`
		Citations int    `json:"citations"`
	}
	reencode(t, raw, &ing)
	if ing.Epoch != 1 || ing.Citations != 1 {
		t.Fatalf("ingest response = %+v, want epoch 1, 1 citation", ing)
	}

	// (a) The open session is pinned to epoch 0: same bytes out.
	code, after := exportSession(t, ts.URL, state.Session)
	if code != http.StatusOK {
		t.Fatalf("export after ingest: status %d", code)
	}
	if before != after {
		t.Fatalf("pinned session's export changed across ingest:\n%s\nvs\n%s", before, after)
	}

	// (b) A fresh query sees the new citation, with no dataset reload.
	resp, raw = postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh query status %d: %s", resp.StatusCode, raw["error"])
	}
	var fresh struct {
		Session string `json:"session"`
		Results int    `json:"results"`
	}
	reencode(t, raw, &fresh)
	if fresh.Results != state.Results+1 {
		t.Fatalf("fresh query results = %d, want %d (old %d + ingested 1)",
			fresh.Results, state.Results+1, state.Results)
	}
	sResp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		DatasetEpoch uint64 `json:"datasetEpoch"`
	}
	err = json.NewDecoder(sResp.Body).Decode(&stats)
	sResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DatasetEpoch != 1 {
		t.Fatalf("stats datasetEpoch = %d, want 1", stats.DatasetEpoch)
	}

	// (c) Epoch-keyed cache: while the epoch-0 session lives, its entry
	// must still hit; the fresh query built an epoch-1 entry beside it.
	norm := navtree.NormalizeQuery(term)
	if _, ok := srv.navCache.Get(navtree.Key{Epoch: 0, Query: norm}); !ok {
		t.Fatal("epoch-0 cache entry dropped while a session is still pinned to it")
	}
	if _, ok := srv.navCache.Get(navtree.Key{Epoch: 1, Query: norm}); !ok {
		t.Fatal("fresh query did not cache its epoch-1 tree")
	}

	// End every session; the next publish may then retire old epochs.
	srv.mu.Lock()
	for id, sess := range srv.sessions {
		srv.dropLocked(id, sess)
	}
	srv.mu.Unlock()

	resp, raw = postJSON(t, ts.URL+"/api/admin/ingest",
		ingestBody(srv, 900002, "second batch citation", term))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest status %d: %s", resp.StatusCode, raw["error"])
	}
	if _, ok := srv.navCache.Get(navtree.Key{Epoch: 0, Query: norm}); ok {
		t.Fatal("epoch-0 cache entry survived with nothing pinning it")
	}
	if _, ok := srv.navCache.Get(navtree.Key{Epoch: 1, Query: norm}); ok {
		t.Fatal("epoch-1 cache entry survived with nothing pinning it")
	}

	// Same-epoch entries still hit: two queries on the current epoch share
	// one tree.
	if resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on epoch 2: %d %s", resp.StatusCode, raw["error"])
	}
	if _, ok := srv.navCache.Get(navtree.Key{Epoch: 2, Query: norm}); !ok {
		t.Fatal("epoch-2 query did not cache its tree")
	}
}

// TestIngestRejectsBadBatches pins the endpoint's error contract: an
// empty batch is a 400, an invalid citation (unknown concept) a 422, and
// neither moves the epoch.
func TestIngestRejectsBadBatches(t *testing.T) {
	srv, ts := testServer(t, Config{})

	resp, _ := postJSON(t, ts.URL+"/api/admin/ingest", map[string]any{"citations": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}

	body := map[string]any{"citations": []map[string]any{{
		"id": 900100, "title": "bad", "year": 2009,
		"terms": []string{"x"}, "concepts": []int{999999},
	}}}
	resp, raw := postJSON(t, ts.URL+"/api/admin/ingest", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown concept: status %d (%s), want 422", resp.StatusCode, raw["error"])
	}
	if got := srv.state().snap.Epoch; got != 0 {
		t.Fatalf("rejected batches moved the epoch to %d", got)
	}
}

// TestRecoverEpochMiss: a session journaled under epoch 0 recovered by a
// server already serving epoch 1 cannot get its exact dataset back — only
// the latest snapshot is materialized after a restart. It must degrade by
// replaying against the current epoch, counted by
// bionav_recovery_epoch_misses_total, and stay navigable.
func TestRecoverEpochMiss(t *testing.T) {
	dir := t.TempDir()
	srv, ts, j := journaledServer(t, dir, Config{})
	term := queryTerm(srv)
	id, _ := startSession(t, srv, ts.URL)

	// Crash without a drain; the journal holds one epoch-0 session.
	j.Close()
	ts.Close()

	srv2, ts2, _ := journaledServer(t, dir, Config{})
	base := srv2.state().snap.Corpus.At(1)
	next, err := srv2.live.Ingest([]corpus.Citation{{
		ID: 900200, Title: "moved underneath", Year: 2009,
		Terms: []string{term}, Concepts: base.Concepts[:2],
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv2.publish(next)

	n, err := srv2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if got := srv2.met.epochMisses.Value(); got != 1 {
		t.Fatalf("bionav_recovery_epoch_misses_total = %v, want 1", got)
	}
	// The degraded session replays against epoch 1 and keeps working.
	if resp, raw := postJSON(t, ts2.URL+"/api/expand", map[string]any{"session": id, "node": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("expand on recovered session: %d %s", resp.StatusCode, raw["error"])
	}

	// Same-epoch recovery is not a miss: a third server that stays at the
	// journaled epoch recovers the session without touching the counter.
	_ = srv2.cfg.Journal.Close()
	ts2.Close()
	srv3, _, _ := journaledServer(t, dir, Config{})
	if _, err := srv3.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv3.met.epochMisses.Value(); got != 0 {
		t.Fatalf("same-epoch recovery counted %v misses, want 0", got)
	}
}
