package bionav

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func demoEngine(t *testing.T) *Engine {
	t.Helper()
	ds := GenerateDemo(DemoConfig{Seed: 7, Concepts: 1500, Citations: 400, MeanConcepts: 25})
	return NewEngine(ds)
}

func firstQuery(t *testing.T, e *Engine) string {
	t.Helper()
	terms := e.Suggestions(5)
	if len(terms) == 0 {
		t.Fatal("no suggestions")
	}
	return terms[0]
}

func TestGenerateDemoDeterministic(t *testing.T) {
	a := GenerateDemo(DemoConfig{Seed: 9, Concepts: 800, Citations: 100, MeanConcepts: 20})
	b := GenerateDemo(DemoConfig{Seed: 9, Concepts: 800, Citations: 100, MeanConcepts: 20})
	if a.Tree.Len() != b.Tree.Len() || a.Corpus.Len() != b.Corpus.Len() {
		t.Fatal("demo generation not deterministic")
	}
	if a.Corpus.At(0).Title != b.Corpus.At(0).Title {
		t.Fatal("demo corpora differ")
	}
}

func TestGenerateDemoDefaults(t *testing.T) {
	ds := GenerateDemo(DemoConfig{})
	if ds.Tree.Len() != 6000 || ds.Corpus.Len() != 2000 {
		t.Fatalf("defaults: %d concepts, %d citations", ds.Tree.Len(), ds.Corpus.Len())
	}
}

func TestEngineSearchAndNavigate(t *testing.T) {
	e := demoEngine(t)
	q := firstQuery(t, e)
	ids := e.Search(q)
	if len(ids) == 0 {
		t.Fatalf("no results for %q", q)
	}
	if _, ok := e.Citation(ids[0]); !ok {
		t.Fatal("result citation unresolvable")
	}

	nav, err := e.Navigate(q)
	if err != nil {
		t.Fatal(err)
	}
	if nav.Results() != len(ids) {
		t.Fatalf("Results = %d, want %d", nav.Results(), len(ids))
	}
	if nav.Keywords() != q {
		t.Fatalf("Keywords = %q", nav.Keywords())
	}

	revealed, err := nav.Expand(nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(revealed) == 0 {
		t.Fatal("expand revealed nothing")
	}
	if got := nav.Cost(); got.Expands != 1 || got.ConceptsRevealed != len(revealed) {
		t.Fatalf("cost = %+v", got)
	}
	for _, r := range revealed {
		if !nav.IsVisible(r) {
			t.Fatalf("revealed node %d not visible", r)
		}
	}

	cits, err := nav.ShowResults(revealed[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cits) == 0 {
		t.Fatal("no citations listed")
	}

	if err := nav.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if nav.IsVisible(revealed[0]) {
		t.Fatal("backtrack did not hide revealed node")
	}
}

func TestNavigateNoMatch(t *testing.T) {
	e := demoEngine(t)
	if _, err := e.Navigate("zzznotaword"); err == nil {
		t.Fatal("Navigate succeeded on empty result")
	}
}

func TestNavigateResultsExplicitSet(t *testing.T) {
	e := demoEngine(t)
	ids := e.Dataset().Corpus.IDs()[:25]
	nav, err := e.NavigateResults("custom", ids)
	if err != nil {
		t.Fatal(err)
	}
	if nav.Results() != 25 {
		t.Fatalf("Results = %d", nav.Results())
	}
	if _, err := e.NavigateResults("ghost", []CitationID{424242}); err == nil {
		t.Fatal("nonexistent IDs accepted")
	}
}

func TestVisibleAndRender(t *testing.T) {
	e := demoEngine(t)
	nav, err := e.Navigate(firstQuery(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if got := nav.Visible()[0].Count; got != nav.Results() {
		t.Fatalf("initial root count = %d, want %d", got, nav.Results())
	}
	if _, err := nav.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	rows := nav.Visible()
	if len(rows) < 2 || rows[0].Depth != 0 || rows[1].Depth != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	// After the cut the root's component shrinks, so its count may drop but
	// never exceed the result total (Definition 5).
	if rows[0].Count <= 0 || rows[0].Count > nav.Results() {
		t.Fatalf("root count after expand = %d", rows[0].Count)
	}
	var buf bytes.Buffer
	if err := nav.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, rows[1].Label) || !strings.Contains(out, ">>>") {
		t.Fatalf("render = %q", out)
	}
}

func TestNodeByLabel(t *testing.T) {
	e := demoEngine(t)
	nav, err := e.Navigate(firstQuery(t, e))
	if err != nil {
		t.Fatal(err)
	}
	rows := nav.Visible()
	id, ok := nav.NodeByLabel(rows[0].Label)
	if !ok || id != rows[0].ID {
		t.Fatalf("NodeByLabel(root) = %d, %v", id, ok)
	}
	if _, ok := nav.NodeByLabel("No Such Concept"); ok {
		t.Fatal("found nonexistent label")
	}
}

func TestEngineSaveOpenRoundTrip(t *testing.T) {
	e := demoEngine(t)
	dir := filepath.Join(t.TempDir(), "db")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := firstQuery(t, e)
	a, b := e.Search(q), e2.Search(q)
	if len(a) != len(b) {
		t.Fatalf("search differs after reload: %d vs %d", len(a), len(b))
	}
	nav, err := e2.Navigate(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nav.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
}

func TestPolicies(t *testing.T) {
	e := demoEngine(t)
	q := firstQuery(t, e)
	for _, pol := range []Policy{HeuristicPolicy(0), StaticPolicy(), TopKPolicy(5)} {
		e.SetPolicy(pol)
		nav, err := e.Navigate(q)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if _, err := nav.Expand(nav.Root()); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestSuggestionsOrdered(t *testing.T) {
	e := demoEngine(t)
	sug := e.Suggestions(20)
	if len(sug) != 20 {
		t.Fatalf("len = %d", len(sug))
	}
	prev := -1
	for i, s := range sug {
		df := e.Dataset().Index.DocFreq(s)
		if prev != -1 && df > prev {
			t.Fatalf("suggestion %d (%q) out of order", i, s)
		}
		prev = df
	}
}

func TestDefaultCostModelExposed(t *testing.T) {
	m := DefaultCostModel()
	if m.Thi != 50 || m.Tlo != 10 {
		t.Fatalf("model = %+v", m)
	}
}

func TestCachedHeuristicPolicyNavigates(t *testing.T) {
	e := demoEngine(t)
	e.SetPolicy(CachedHeuristicPolicy(0))
	nav, err := e.Navigate(firstQuery(t, e))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := nav.Expand(nav.Root()); err != nil {
			break
		}
	}
	if nav.Cost().Expands == 0 {
		t.Fatal("no expansions happened")
	}
}

// TestCachedHeuristicConcurrentNavigations: an Engine is safe for
// concurrent use under the cached policy too, whose plans are per-session
// state; run it under -race.
func TestCachedHeuristicConcurrentNavigations(t *testing.T) {
	e := demoEngine(t)
	e.SetPolicy(CachedHeuristicPolicy(0))
	q := firstQuery(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				nav, err := e.Navigate(q)
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < 3; j++ {
					if _, err := nav.Expand(nav.Root()); err != nil {
						break
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

func TestNavigationExportReplay(t *testing.T) {
	e := demoEngine(t)
	q := firstQuery(t, e)
	orig, err := e.Navigate(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Expand(orig.Root()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := e.ReplayNavigation(q, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cost() != orig.Cost() {
		t.Fatalf("cost %+v != %+v", restored.Cost(), orig.Cost())
	}
	a, b := orig.Visible(), restored.Visible()
	if len(a) != len(b) {
		t.Fatalf("visible rows differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, err := e.ReplayNavigation("zzznotaword", &buf); err == nil {
		t.Fatal("replay on empty result accepted")
	}
}
