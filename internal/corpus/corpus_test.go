package corpus

import (
	"testing"
	"testing/quick"

	"bionav/internal/hierarchy"
	"bionav/internal/rng"
)

func testTree(t *testing.T) *hierarchy.Tree {
	t.Helper()
	return hierarchy.Generate(hierarchy.GenConfig{Seed: 11, Nodes: 600, TopLevel: 8, MaxDepth: 8})
}

func smallCorpus(t *testing.T, tree *hierarchy.Tree) *Corpus {
	t.Helper()
	return Generate(tree, GenConfig{
		Seed: 5, Citations: 300, MeanConcepts: 25, FirstID: 100, YearLo: 1990, YearHi: 2008,
	})
}

func TestGenerateDeterministic(t *testing.T) {
	tree := testTree(t)
	cfg := GenConfig{Seed: 9, Citations: 100, MeanConcepts: 20, FirstID: 1, YearLo: 2000, YearHi: 2005}
	a, b := Generate(tree, cfg), Generate(tree, cfg)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		ca, cb := a.At(i), b.At(i)
		if ca.ID != cb.ID || ca.Title != cb.Title || ca.Year != cb.Year ||
			len(ca.Concepts) != len(cb.Concepts) {
			t.Fatalf("citation %d differs: %+v vs %+v", i, ca, cb)
		}
		for j := range ca.Concepts {
			if ca.Concepts[j] != cb.Concepts[j] {
				t.Fatalf("citation %d concepts differ", i)
			}
		}
	}
}

func TestCitationBasics(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	if c.Len() != 300 {
		t.Fatalf("Len = %d", c.Len())
	}
	cit, ok := c.Get(100)
	if !ok || cit.ID != 100 {
		t.Fatalf("Get(100) = %v, %v", cit, ok)
	}
	if _, ok := c.Get(99); ok {
		t.Fatal("Get(99) should miss")
	}
	if got := c.Concepts(100); len(got) == 0 {
		t.Fatal("citation 100 has no concepts")
	}
	if c.Concepts(42) != nil {
		t.Fatal("unknown citation should yield nil concepts")
	}
	ids := c.IDs()
	if len(ids) != 300 || ids[0] != 100 || ids[299] != 399 {
		t.Fatalf("IDs = [%d..%d] len %d", ids[0], ids[len(ids)-1], len(ids))
	}
}

func TestAnnotationsAreAncestorClosedAndSorted(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	for i := 0; i < c.Len(); i++ {
		cit := c.At(i)
		set := make(map[hierarchy.ConceptID]struct{}, len(cit.Concepts))
		prev := hierarchy.ConceptID(-1)
		for _, id := range cit.Concepts {
			if id <= prev {
				t.Fatalf("citation %d: concepts not strictly sorted", cit.ID)
			}
			prev = id
			if id == tree.Root() {
				t.Fatalf("citation %d annotated with root", cit.ID)
			}
			set[id] = struct{}{}
		}
		for id := range set {
			p := tree.Parent(id)
			if p == tree.Root() || p == hierarchy.None {
				continue
			}
			if _, ok := set[p]; !ok {
				t.Fatalf("citation %d: concept %d present without parent %d", cit.ID, id, p)
			}
		}
	}
}

func TestAnnotationDensity(t *testing.T) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 3, Nodes: 5000, TopLevel: 16, MaxDepth: 10})
	c := Generate(tree, GenConfig{Seed: 8, Citations: 500, MeanConcepts: 90, FirstID: 1, YearLo: 2000, YearHi: 2008})
	s := c.ComputeStats()
	if s.MeanConcepts < 45 || s.MeanConcepts > 140 {
		t.Errorf("MeanConcepts = %.1f, want near 90", s.MeanConcepts)
	}
	if s.DistinctUsed < 500 {
		t.Errorf("DistinctUsed = %d, want broad coverage", s.DistinctUsed)
	}
}

func TestGlobalCountsDecayWithDepth(t *testing.T) {
	tree := testTree(t)
	counts := SynthGlobalCounts(tree, rng.New(4))
	if counts[tree.Root()] != 18_000_000 {
		t.Fatalf("root count = %d", counts[tree.Root()])
	}
	sum := make(map[int]float64)
	n := make(map[int]int)
	for i := 0; i < tree.Len(); i++ {
		d := tree.Node(hierarchy.ConceptID(i)).Depth
		sum[d] += float64(counts[i])
		n[d]++
	}
	// Mean counts must decrease by at least 2x from depth 1 to depth 4.
	if m1, m4 := sum[1]/float64(n[1]), sum[4]/float64(n[4]); m1 < 2*m4 {
		t.Errorf("depth-1 mean %f not ≫ depth-4 mean %f", m1, m4)
	}
	for i, v := range counts {
		if v < 10 {
			t.Fatalf("count[%d] = %d < 10", i, v)
		}
	}
}

func TestGlobalCountClampedToObserved(t *testing.T) {
	tree := testTree(t)
	deep := hierarchy.ConceptID(tree.Len() - 1)
	cits := []Citation{
		{ID: 1, Title: "a", Concepts: pathConcepts(tree, deep)},
		{ID: 2, Title: "b", Concepts: pathConcepts(tree, deep)},
		{ID: 3, Title: "c", Concepts: pathConcepts(tree, deep)},
	}
	counts := make([]int64, tree.Len()) // all zero: must be clamped up
	c, err := New(tree, cits, counts)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.GlobalCount(deep); got != 3 {
		t.Fatalf("GlobalCount(deep) = %d, want clamped 3", got)
	}
}

func pathConcepts(tree *hierarchy.Tree, id hierarchy.ConceptID) []hierarchy.ConceptID {
	path := tree.Path(id)
	return path[1:] // drop the root
}

func TestNewRejectsBadInput(t *testing.T) {
	tree := testTree(t)
	counts := make([]int64, tree.Len())
	if _, err := New(tree, nil, counts[:3]); err == nil {
		t.Error("short counts accepted")
	}
	if _, err := New(tree, []Citation{{ID: 1}, {ID: 1}}, counts); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := New(tree, []Citation{{ID: 1, Concepts: []hierarchy.ConceptID{0}}}, counts); err == nil {
		t.Error("root annotation accepted")
	}
	if _, err := New(tree, []Citation{{ID: 1, Concepts: []hierarchy.ConceptID(
		[]hierarchy.ConceptID{hierarchy.ConceptID(tree.Len())})}}, counts); err == nil {
		t.Error("out-of-range concept accepted")
	}
}

func TestAnnotatorBounded(t *testing.T) {
	tree := testTree(t)
	a := NewAnnotator(tree, rng.New(2))
	err := quick.Check(func(fRaw uint16, tRaw uint8) bool {
		focus := hierarchy.ConceptID(1 + int(fRaw)%(tree.Len()-1))
		target := 1 + int(tRaw)%60
		got := a.Annotate(focus, target)
		if len(got) == 0 {
			return false
		}
		seen := make(map[hierarchy.ConceptID]bool)
		for _, id := range got {
			if seen[id] || id == tree.Root() {
				return false
			}
			seen[id] = true
		}
		return seen[focus]
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Prothymosin Alpha in Cancer", []string{"prothymosin", "alpha", "in", "cancer"}},
		{"Na+/I- symporter study", []string{"na+", "i-", "symporter", "study"}},
		{"a b c dd dd", []string{"dd"}},
		{"", nil},
		{"LbetaT2 cells", []string{"lbetat2", "cells"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestTokenizeTrimsDashes(t *testing.T) {
	got := Tokenize("cross-linked --edge-- items")
	for _, tok := range got {
		if tok == "" || tok[0] == '-' {
			t.Fatalf("token %q has leading dash", tok)
		}
	}
}

func TestTitlesAndAuthorsNonEmpty(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	for i := 0; i < c.Len(); i++ {
		cit := c.At(i)
		if cit.Title == "" || len(cit.Authors) == 0 || len(cit.Terms) == 0 {
			t.Fatalf("citation %d incomplete: %+v", cit.ID, cit)
		}
		if cit.Year < 1990 || cit.Year > 2008 {
			t.Fatalf("citation %d year %d out of range", cit.ID, cit.Year)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 3, Nodes: 5000, TopLevel: 16, MaxDepth: 10})
	cfg := GenConfig{Seed: 8, Citations: 1000, MeanConcepts: 90, FirstID: 1, YearLo: 2000, YearHi: 2008}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Generate(tree, cfg)
	}
}
