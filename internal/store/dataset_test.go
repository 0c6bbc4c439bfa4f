package store

import (
	"os"
	"path/filepath"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
)

func testDataset(tb testing.TB) *Snapshot {
	tb.Helper()
	return testDatasetSized(tb, 300, 120)
}

func testDatasetSized(tb testing.TB, concepts, citations int) *Snapshot {
	tb.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 21, Nodes: concepts, TopLevel: 8, MaxDepth: 7})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 4, Citations: citations, MeanConcepts: 12, FirstID: 7000, YearLo: 1999, YearHi: 2008})
	return &Snapshot{Tree: tree, Corpus: c, Index: index.Build(c)}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if got.Tree.Len() != ds.Tree.Len() {
		t.Fatalf("tree size %d vs %d", got.Tree.Len(), ds.Tree.Len())
	}
	for i := 0; i < ds.Tree.Len(); i++ {
		a, b := ds.Tree.Node(hierarchy.ConceptID(i)), got.Tree.Node(hierarchy.ConceptID(i))
		if a.Label != b.Label || a.Parent != b.Parent || a.TreeID != b.TreeID {
			t.Fatalf("node %d differs", i)
		}
		if ds.Corpus.GlobalCount(a.ID) != got.Corpus.GlobalCount(a.ID) {
			t.Fatalf("global count %d differs", i)
		}
	}

	if got.Corpus.Len() != ds.Corpus.Len() {
		t.Fatalf("corpus size %d vs %d", got.Corpus.Len(), ds.Corpus.Len())
	}
	for i := 0; i < ds.Corpus.Len(); i++ {
		a, b := ds.Corpus.At(i), got.Corpus.At(i)
		if a.ID != b.ID || a.Title != b.Title || a.Year != b.Year {
			t.Fatalf("citation %d header differs", i)
		}
		if len(a.Authors) != len(b.Authors) || len(a.Terms) != len(b.Terms) || len(a.Concepts) != len(b.Concepts) {
			t.Fatalf("citation %d payload lengths differ", i)
		}
		for j := range a.Concepts {
			if a.Concepts[j] != b.Concepts[j] {
				t.Fatalf("citation %d concept %d differs", i, j)
			}
		}
	}

	if got.Index.Docs() != ds.Index.Docs() || got.Index.Terms() != ds.Index.Terms() {
		t.Fatalf("index stats differ")
	}
	// A real search must behave identically.
	q := ds.Corpus.At(0).Terms[0]
	a, b := ds.Index.Search(q), got.Index.Search(q)
	if len(a) != len(b) {
		t.Fatalf("search result size differs for %q", q)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("search results differ for %q", q)
		}
	}
}

func TestLoadDatasetMissingTable(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "searchindex.tbl")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("load succeeded without index table")
	}
}

func TestLoadDatasetEmptyDir(t *testing.T) {
	if _, err := LoadDataset(t.TempDir()); err == nil {
		t.Fatal("load succeeded on empty directory")
	}
}

func TestSaveOverwritesExisting(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Save again into the same directory; load must still succeed (stale
	// tables cleaned, no duplicate records).
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corpus.Len() != ds.Corpus.Len() {
		t.Fatalf("corpus size %d after re-save", got.Corpus.Len())
	}
}

func BenchmarkDatasetSaveLoad(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 21, Nodes: 2000, TopLevel: 16, MaxDepth: 9})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 4, Citations: 1000, MeanConcepts: 40, FirstID: 1, YearLo: 1999, YearHi: 2008})
	ds := &Snapshot{Tree: tree, Corpus: c, Index: index.Build(c)}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Save(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadDataset(dir); err != nil {
			b.Fatal(err)
		}
	}
}
