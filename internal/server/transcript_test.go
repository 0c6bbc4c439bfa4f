package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"bionav"
	"bionav/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/http.golden")

var httpGolden = filepath.Join("..", "..", "testdata", "golden", "http.golden")

// transcriptKeywords is the demo-corpus query the transcript navigates.
const transcriptKeywords = "regulation"

// TestTranscriptGolden pins the HTTP surface of a navigation on the -demo
// corpus: the status and body of every response to a fixed script of
// query, expand, backtrack, ignore, results, expandall, export and import
// requests, run once with the default EXPAND budget and once with a 1 ns
// budget that degrades every cut to the static one. The transcript must be
// the same at GOMAXPROCS 1, where every solve runs on the request
// goroutine, and at GOMAXPROCS 4, where expandall fans its solves out.
// Regenerate with
//
//	go test ./internal/server -run TestTranscriptGolden -update
//
// only for an intended behaviour change, and say why in CHANGES.md.
func TestTranscriptGolden(t *testing.T) {
	ds := bionav.GenerateDemo(bionav.DemoConfig{})
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		// A zero budget is the server's default.
		for _, budget := range []time.Duration{0, time.Nanosecond} {
			srv := server.New(ds, server.Config{ExpandBudget: budget})
			fmt.Fprintf(&buf, "### expand budget %v\n", budget)
			transcript(t, &buf, srv.Handler())
		}
		runtime.GOMAXPROCS(prev)
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("GOMAXPROCS %d: transcript differs from GOMAXPROCS 1", procs)
		}
	}
	checkGolden(t, want)
}

// transcript drives the script against h and appends one entry per
// request to buf.
func transcript(t *testing.T, buf *bytes.Buffer, h http.Handler) {
	t.Helper()
	do := func(method, path string, body any) []byte {
		t.Helper()
		var b []byte
		if body != nil {
			var err error
			if b, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(buf, "%s %s -> %d\n", method, path, rec.Code)
		record(buf, rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	type view struct {
		Node       int    `json:"node"`
		Expandable bool   `json:"expandable"`
		Children   []view `json:"children"`
	}
	type state struct {
		Session string `json:"session"`
		Tree    view   `json:"tree"`
	}
	decode := func(b []byte) state {
		t.Helper()
		var st state
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decode state: %v", err)
		}
		return st
	}
	query := map[string]string{"keywords": transcriptKeywords}

	a := decode(do("POST", "/api/query", query))
	root := a.Tree.Node
	opened := decode(do("POST", "/api/expand", map[string]any{"session": a.Session, "node": root}))
	child := -1
	for _, c := range opened.Tree.Children {
		if c.Expandable {
			child = c.Node
			break
		}
	}
	if child == -1 {
		t.Fatal("the root EXPAND revealed no expandable child")
	}
	expandChild := map[string]any{"session": a.Session, "node": child}
	do("POST", "/api/expand", expandChild)
	do("POST", "/api/backtrack", map[string]any{"session": a.Session})
	do("POST", "/api/expand", expandChild) // answered from the tree's cut memo

	b := decode(do("POST", "/api/query", query))
	shown := decode(do("POST", "/api/expand", map[string]any{"session": b.Session, "node": root}))

	do("POST", "/api/ignore", expandChild)
	do("GET", fmt.Sprintf("/api/results?session=%s&node=%d", a.Session, child), nil)
	do("POST", "/api/expandall", map[string]any{"session": a.Session})
	do("POST", "/api/expandall", map[string]any{"session": a.Session})
	exported := do("GET", "/api/export?session="+a.Session, nil)
	do("POST", "/api/import", map[string]any{"keywords": transcriptKeywords, "session": json.RawMessage(exported)})

	// The lowest node ID session b does not show is hidden there.
	visible := map[int]bool{}
	var walk func(v view)
	walk = func(v view) {
		visible[v.Node] = true
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(shown.Tree)
	hidden := 0
	for visible[hidden] {
		hidden++
	}
	do("POST", "/api/expand", map[string]any{"session": b.Session, "node": hidden})
}

// recordLimit is the longest value the transcript records verbatim;
// longer ones are recorded by length and SHA-256, which keeps the golden
// small while still pinning every byte.
const recordLimit = 160

// record appends body to buf: each top-level field of a JSON object on
// its own line in key order, anything else as one value.
func record(buf *bytes.Buffer, body []byte) {
	body = bytes.TrimSpace(body)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		fmt.Fprintf(buf, "  %s\n", digest(body))
		return
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(buf, "  %s: %s\n", k, digest(fields[k]))
	}
}

// digest renders a JSON value verbatim when it is short and single-line,
// and as its length and SHA-256 otherwise.
func digest(v []byte) string {
	if len(v) <= recordLimit && !bytes.ContainsRune(v, '\n') {
		return string(v)
	}
	return fmt.Sprintf("len=%d sha256=%x", len(v), sha256.Sum256(v))
}

// checkGolden compares got with http.golden, or rewrites it under -update.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(httpGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(httpGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of transcript)"
	}
	t.Fatalf("transcript differs from %s at line %d:\n got  %s\n want %s", httpGolden, i+1, line(g), line(w))
}
