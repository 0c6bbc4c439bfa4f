package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bionav"
	"bionav/internal/core"
	"bionav/internal/server"
)

// TestEveryPolicySpellingServes: every -policy spelling is either refused
// by core.PolicyByName, which bionav-server and bionav-loadgen call at
// startup, or it serves a demo query's root EXPAND with 200 and an
// optimized cut. A spelling that passed validation and then answered the
// first root EXPAND with 422 (exact Opt-EdgeCut on a component above its
// node limit) fails here, as would one that degraded every root EXPAND.
func TestEveryPolicySpellingServes(t *testing.T) {
	ds := bionav.GenerateDemo(bionav.DemoConfig{Seed: 6, Concepts: 800, Citations: 150, MeanConcepts: 15})
	keywords := ds.Corpus.At(0).Terms[0]
	for _, name := range []string{"heuristic", "static", "poly", "opt", "bogus"} {
		t.Run(name, func(t *testing.T) {
			if _, err := core.PolicyByName(name, 0); err != nil {
				return // refused at startup
			}
			h := server.New(ds, server.Config{Policy: name}).Handler()
			post := func(path string, body any) (int, map[string]any) {
				t.Helper()
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				return rec.Code, out
			}
			code, state := post("/api/query", map[string]string{"keywords": keywords})
			if code != http.StatusOK {
				t.Fatalf("query %q answered %d: %v", keywords, code, state["error"])
			}
			code, state = post("/api/expand", map[string]any{"session": state["session"], "node": 0})
			if code != http.StatusOK {
				t.Fatalf("accepted policy %q answered the root EXPAND with %d: %v", name, code, state["error"])
			}
			if state["degraded"] == true {
				t.Fatalf("accepted policy %q degraded the root EXPAND: %v", name, state["degradedReason"])
			}
		})
	}
}
