package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/store"
)

// testDataset builds the deterministic corpus every server test — and the
// chaos harness's server subprocess — runs against. Same seeds, same data.
func testDataset() *store.Snapshot {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 71, Nodes: 1000, TopLevel: 12, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 72, Citations: 300, MeanConcepts: 30, FirstID: 500, YearLo: 2000, YearHi: 2008,
	})
	return &store.Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)}
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(testDataset(), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// queryTerm picks a term guaranteed to match at least one citation.
func queryTerm(srv *Server) string {
	return srv.live.Current().Corpus.At(0).Terms[0]
}

func TestQueryExpandShowResults(t *testing.T) {
	srv, ts := testServer(t, Config{})

	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Session string `json:"session"`
		Results int    `json:"results"`
		Tree    struct {
			Node       int  `json:"node"`
			Count      int  `json:"count"`
			Expandable bool `json:"expandable"`
		} `json:"tree"`
	}
	reencode(t, raw, &state)
	if state.Session == "" || state.Results == 0 {
		t.Fatalf("state = %+v", state)
	}
	if state.Tree.Count != state.Results {
		t.Fatalf("root count %d != results %d", state.Tree.Count, state.Results)
	}
	if !state.Tree.Expandable {
		t.Fatal("root not expandable")
	}

	// Expand the root.
	resp, raw = postJSON(t, ts.URL+"/api/expand", map[string]any{"session": state.Session, "node": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, raw["error"])
	}
	var after struct {
		Cost struct {
			Expands    int `json:"expands"`
			Navigation int `json:"navigation"`
		} `json:"cost"`
		Tree struct {
			Children []json.RawMessage `json:"children"`
		} `json:"tree"`
	}
	reencode(t, raw, &after)
	if after.Cost.Expands != 1 || len(after.Tree.Children) == 0 {
		t.Fatalf("after expand: %+v", after)
	}

	// List root results.
	rResp, err := http.Get(fmt.Sprintf("%s/api/results?session=%s&node=0", ts.URL, state.Session))
	if err != nil {
		t.Fatal(err)
	}
	defer rResp.Body.Close()
	if rResp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", rResp.StatusCode)
	}
	var cits []struct {
		ID    int64  `json:"id"`
		Title string `json:"title"`
	}
	if err := json.NewDecoder(rResp.Body).Decode(&cits); err != nil {
		t.Fatal(err)
	}
	if len(cits) != state.Results {
		t.Fatalf("listed %d citations, want %d", len(cits), state.Results)
	}

	// Backtrack restores the unexpanded tree.
	resp, raw = postJSON(t, ts.URL+"/api/backtrack", map[string]any{"session": state.Session})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backtrack status %d: %s", resp.StatusCode, raw["error"])
	}
}

func reencode(t *testing.T, raw map[string]json.RawMessage, dst any) {
	t.Helper()
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, dst); err != nil {
		t.Fatal(err)
	}
}

func TestQueryNoMatches(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": "zzznotaword"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}

	resp2, _ := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": "nope", "node": 0})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", resp2.StatusCode)
	}
}

func TestExpandInvalidNode(t *testing.T) {
	srv, ts := testServer(t, Config{})
	_, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	var sessionID string
	if err := json.Unmarshal(raw["session"], &sessionID); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": sessionID, "node": 99999})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

func TestSessionEviction(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSessions: 2})
	term := queryTerm(srv)
	var ids []string
	for i := 0; i < 3; i++ {
		_, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
		var id string
		if err := json.Unmarshal(raw["session"], &id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		time.Sleep(2 * time.Millisecond) // distinct lastUsed timestamps
	}
	// The first session must be evicted.
	resp, _ := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": ids[0], "node": 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session: status %d, want 404", resp.StatusCode)
	}
	// The latest must still work.
	resp2, _ := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": ids[2], "node": 0})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("latest session: status %d", resp2.StatusCode)
	}
}

func TestSessionTTL(t *testing.T) {
	srv, ts := testServer(t, Config{SessionTTL: time.Millisecond})
	_, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	var id string
	if err := json.Unmarshal(raw["session"], &id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	resp, _ := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session: status %d, want 404", resp.StatusCode)
	}
}

func TestStatsAndIndexPage(t *testing.T) {
	srv, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if int(stats["concepts"].(float64)) != srv.live.Current().Tree.Len() || int(stats["citations"].(float64)) != srv.live.Current().Corpus.Len() {
		t.Fatalf("stats = %v", stats)
	}
	if stats["policy"] != "Heuristic-ReducedOpt" {
		t.Fatalf("stats policy = %v, want the default Heuristic-ReducedOpt", stats["policy"])
	}

	page, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(page.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BioNav") || !strings.Contains(page.Header.Get("Content-Type"), "text/html") {
		t.Fatal("index page malformed")
	}
}

// TestConfigRejectedPolicyNormalizes: a policy name or K that
// core.PolicyByName rejects normalizes to the default heuristic policy
// and its K, never keeping a heuristic K whose reduced trees the DP
// cannot take; a K the named policy takes is kept. bionav-server and
// bionav-loadgen refuse such a name at startup before it gets here.
func TestConfigRejectedPolicyNormalizes(t *testing.T) {
	for _, tc := range []struct {
		in         Config
		wantPolicy string
		wantK      int
	}{
		{Config{PolicyK: 36}, "heuristic", 10},
		{Config{Policy: "heuristic", PolicyK: 64}, "heuristic", 10},
		{Config{Policy: "bogus", PolicyK: 12}, "heuristic", 10},
		{Config{Policy: "heuristic", PolicyK: 24}, "heuristic", 24},
		{Config{Policy: "poly", PolicyK: 36}, "heuristic", 10},
	} {
		c := tc.in
		c.fill()
		if c.Policy != tc.wantPolicy || c.PolicyK != tc.wantK {
			t.Errorf("%+v normalized to policy %q, K %d; want %q, %d", tc.in, c.Policy, c.PolicyK, tc.wantPolicy, tc.wantK)
		}
	}
}

// TestPolyPolicyConfig wires Config.Policy through to sessions: stats
// names the selected policy and /api/expand carries the cut grade.
func TestPolyPolicyConfig(t *testing.T) {
	srv, ts := testServer(t, Config{Policy: "static"})

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["policy"] != "Static" {
		t.Fatalf("stats policy = %v, want Static", stats["policy"])
	}

	qResp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
	if qResp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", qResp.StatusCode, raw["error"])
	}
	var state struct {
		Session string `json:"session"`
	}
	reencode(t, raw, &state)
	eResp, raw := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": state.Session, "node": 0})
	if eResp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", eResp.StatusCode, raw["error"])
	}
	var after struct {
		Grade    string `json:"grade"`
		Degraded bool   `json:"degraded"`
	}
	reencode(t, raw, &after)
	if after.Grade != "full" || after.Degraded {
		t.Fatalf("undeadlined expand grade = %q (degraded=%v), want full", after.Grade, after.Degraded)
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- func() error {
				b, _ := json.Marshal(map[string]string{"keywords": term})
				resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				var state struct {
					Session string `json:"session"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
					return err
				}
				b, _ = json.Marshal(map[string]any{"session": state.Session, "node": 0})
				resp2, err := http.Post(ts.URL+"/api/expand", "application/json", bytes.NewReader(b))
				if err != nil {
					return err
				}
				resp2.Body.Close()
				if resp2.StatusCode != http.StatusOK {
					return fmt.Errorf("expand status %d", resp2.StatusCode)
				}
				return nil
			}()
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)
	_, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
	var id string
	if err := json.Unmarshal(raw["session"], &id); err != nil {
		t.Fatal(err)
	}
	resp, raw2 := postJSON(t, ts.URL+"/api/expand", map[string]any{"session": id, "node": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d", resp.StatusCode)
	}
	var origCost json.RawMessage = raw2["cost"]

	expResp, err := http.Get(ts.URL + "/api/export?session=" + id)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := io.ReadAll(expResp.Body)
	expResp.Body.Close()
	if err != nil || expResp.StatusCode != http.StatusOK {
		t.Fatalf("export: %v status %d", err, expResp.StatusCode)
	}
	if cd := expResp.Header.Get("Content-Disposition"); !strings.Contains(cd, "bionav-session") {
		t.Fatalf("disposition %q", cd)
	}

	// Import as a brand-new session: identical cost and tree shape.
	body, _ := json.Marshal(map[string]any{
		"keywords": term,
		"session":  json.RawMessage(exported),
	})
	impResp, err := http.Post(ts.URL+"/api/import", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer impResp.Body.Close()
	if impResp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d", impResp.StatusCode)
	}
	var state map[string]json.RawMessage
	if err := json.NewDecoder(impResp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if string(state["cost"]) != string(origCost) {
		t.Fatalf("restored cost %s != original %s", state["cost"], origCost)
	}

	// Garbage session payloads are rejected.
	bad, _ := json.Marshal(map[string]any{"keywords": term, "session": json.RawMessage(`{"version":9}`)})
	r3, err := http.Post(ts.URL+"/api/import", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad import status %d", r3.StatusCode)
	}
}

// rootExpansion starts a session for term on ts, EXPANDs its root and
// returns the session ID and the revealed children.
func rootExpansion(t *testing.T, ts, term string) (string, []int) {
	t.Helper()
	_, raw := postJSON(t, ts+"/api/query", map[string]string{"keywords": term})
	var id string
	if err := json.Unmarshal(raw["session"], &id); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts+"/api/expand", map[string]any{"session": id, "node": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expand status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Tree struct {
			Children []struct {
				Node int `json:"node"`
			} `json:"children"`
		} `json:"tree"`
	}
	reencode(t, raw, &state)
	var kids []int
	for _, c := range state.Tree.Children {
		kids = append(kids, c.Node)
	}
	sort.Ints(kids)
	return id, kids
}

// TestImportCannotPoisonCutMemo: an imported session's recorded cuts
// never enter the cut memo its navigation tree shares with every session
// on the query. The import records the static all-children cut of the
// root, taken from a static-policy server; a fresh session on the same
// cached tree must still get the heuristic's root cut, the one a server
// that never saw the import picks.
func TestImportCannotPoisonCutMemo(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)
	_, static := testServer(t, Config{Policy: "static"})
	staticID, staticKids := rootExpansion(t, static.URL, term)
	code, exported := exportSession(t, static.URL, staticID)
	if code != http.StatusOK {
		t.Fatalf("export status %d", code)
	}
	_, clean := testServer(t, Config{})
	_, want := rootExpansion(t, clean.URL, term)
	if fmt.Sprint(want) == fmt.Sprint(staticKids) {
		t.Fatal("fixture: the heuristic picks the static cut, so the import cannot differ from it")
	}

	body, _ := json.Marshal(map[string]any{"keywords": term, "session": json.RawMessage(exported)})
	resp, err := http.Post(ts.URL+"/api/import", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d", resp.StatusCode)
	}
	if _, got := rootExpansion(t, ts.URL, term); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fresh session after the import revealed %v, want the heuristic's %v (the import recorded %v)", got, want, staticKids)
	}
}

func TestExportUnknownSession(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/export?session=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestNavTreeCacheSharedAcrossQueries(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)

	// Two queries that normalize to the same key: different case and spacing.
	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d: %s", resp.StatusCode, raw["error"])
	}
	variant := "  " + strings.ToUpper(term) + "  "
	resp, raw = postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": variant})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second query status %d: %s", resp.StatusCode, raw["error"])
	}

	sResp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sResp.Body.Close()
	var stats struct {
		Trees  int    `json:"navCacheTrees"`
		Hits   uint64 `json:"navCacheHits"`
		Misses uint64 `json:"navCacheMisses"`
	}
	if err := json.NewDecoder(sResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Trees != 1 {
		t.Fatalf("navCacheTrees = %d, want 1", stats.Trees)
	}
	if stats.Hits < 1 || stats.Misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want hits>=1 misses=1", stats.Hits, stats.Misses)
	}
}

// TestSameSessionConcurrency hammers ONE session from several goroutines —
// expand, backtrack, results, export — and must pass under -race. Logical
// conflicts (422: nothing to backtrack, node not expandable) are expected;
// data races and 5xx are not.
func TestSameSessionConcurrency(t *testing.T) {
	srv, ts := testServer(t, Config{})
	term := queryTerm(srv)
	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": term})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw["error"])
	}
	var state struct {
		Session string `json:"session"`
	}
	reencode(t, raw, &state)

	post := func(path string) (int, error) {
		b, _ := json.Marshal(map[string]any{"session": state.Session, "node": 0})
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode, nil
	}
	get := func(path string) (int, error) {
		r, err := http.Get(ts.URL + path + "?session=" + state.Session + "&node=0")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode, nil
	}

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			done <- func() error {
				for iter := 0; iter < 5; iter++ {
					var code int
					var err error
					switch (i + iter) % 4 {
					case 0:
						code, err = post("/api/expand")
					case 1:
						code, err = post("/api/backtrack")
					case 2:
						code, err = get("/api/results")
					default:
						code, err = get("/api/export")
					}
					if err != nil {
						return err
					}
					if code != http.StatusOK && code != http.StatusUnprocessableEntity {
						return fmt.Errorf("status %d", code)
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkQueryNavCache measures /api/query with a warm navigation-tree
// cache (hit: the tree build is amortized away) against a fresh cache key
// per query (miss: every query rebuilds the tree from the inverted index).
// A miss query excludes a term no citation has, so its results, and the
// tree it builds, are those of the hit query.
func BenchmarkQueryNavCache(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 71, Nodes: 1000, TopLevel: 12, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 72, Citations: 300, MeanConcepts: 30, FirstID: 500, YearLo: 2000, YearHi: 2008,
	})
	ds := &store.Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)}

	run := func(b *testing.B, miss bool) {
		srv := New(ds, Config{})
		h := srv.Handler()
		term := queryTerm(srv)
		body, _ := json.Marshal(map[string]string{"keywords": term})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if miss {
				body, _ = json.Marshal(map[string]string{"keywords": fmt.Sprintf("%s NOT zz%d", term, i)})
			}
			req := httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, false) })
	b.Run("miss", func(b *testing.B) { run(b, true) })
}

// TestIgnoreAction pins the IGNORE endpoint: dismissing a visible node
// succeeds and returns the (unchanged) state, while hidden nodes and dead
// sessions get the usual 422/404 contract.
func TestIgnoreAction(t *testing.T) {
	srv, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
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

	resp, raw = postJSON(t, ts.URL+"/api/ignore", map[string]any{"session": state.Session, "node": state.Tree.Node})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ignore status %d: %s", resp.StatusCode, raw["error"])
	}
	if _, ok := raw["tree"]; !ok {
		t.Fatalf("ignore response carries no state: %v", raw)
	}

	resp, _ = postJSON(t, ts.URL+"/api/ignore", map[string]any{"session": state.Session, "node": -5})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ignore of unknown node: status %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/api/ignore", map[string]any{"session": "nope", "node": 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ignore on dead session: status %d, want 404", resp.StatusCode)
	}
}

// TestStatsLatencyQuantiles checks /api/stats reports request-latency
// quantiles estimated from the same histogram /metrics exposes, and that
// the NaN guard keeps an idle server's stats encodable.
func TestStatsLatencyQuantiles(t *testing.T) {
	srv, ts := testServer(t, Config{})

	// Idle server: no observations yet, quantiles must be 0, not NaN.
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("idle stats must encode cleanly: %v", err)
	}
	// The stats request itself may already have been observed; only its
	// presence and type are pinned here.
	for _, k := range []string{"latencyP50Ms", "latencyP95Ms", "latencyP99Ms"} {
		if _, ok := stats[k].(float64); !ok {
			t.Fatalf("stats[%s] = %v (%T), want float64", k, stats[k], stats[k])
		}
	}

	// Drive some traffic, then the quantiles must be positive and ordered.
	for i := 0; i < 5; i++ {
		r, _ := postJSON(t, ts.URL+"/api/query", map[string]string{"keywords": queryTerm(srv)})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", r.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats = map[string]any{}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	p50 := stats["latencyP50Ms"].(float64)
	p99 := stats["latencyP99Ms"].(float64)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("latency quantiles p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
	}
}
