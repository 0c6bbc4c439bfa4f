package index

import (
	"sort"
	"testing"
	"testing/quick"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

func docs() map[corpus.CitationID][]string {
	return map[corpus.CitationID][]string{
		1: {"prothymosin", "alpha", "cancer"},
		2: {"prothymosin", "apoptosis"},
		3: {"cancer", "apoptosis", "histone"},
		4: {"histone", "chromatin"},
		5: {"prothymosin", "cancer", "chromatin"},
	}
}

func TestSearchAND(t *testing.T) {
	ix := BuildFromDocs(docs())
	cases := []struct {
		q    string
		want []corpus.CitationID
	}{
		{"prothymosin", []corpus.CitationID{1, 2, 5}},
		{"prothymosin cancer", []corpus.CitationID{1, 5}},
		{"Prothymosin CANCER chromatin", []corpus.CitationID{5}},
		{"histone apoptosis", []corpus.CitationID{3}},
		{"nosuchterm", nil},
		{"prothymosin nosuchterm", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := ix.Search(c.q)
		if !equalIDs(got, c.want) {
			t.Errorf("Search(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSearchOR(t *testing.T) {
	ix := BuildFromDocs(docs())
	got := ix.SearchQuery("chromatin OR apoptosis")
	want := []corpus.CitationID{2, 3, 4, 5}
	if !equalIDs(got, want) {
		t.Errorf("SearchQuery(OR) = %v, want %v", got, want)
	}
	if got, want := ix.SearchQuery("chromatin OR nosuchterm"), []corpus.CitationID{4, 5}; !equalIDs(got, want) {
		t.Errorf("SearchQuery(OR with an absent term) = %v, want %v", got, want)
	}
}

func TestStatsAndPostings(t *testing.T) {
	ix := BuildFromDocs(docs())
	if ix.Docs() != 5 {
		t.Errorf("Docs = %d", ix.Docs())
	}
	if ix.Terms() != 6 {
		t.Errorf("Terms = %d", ix.Terms())
	}
	if ix.DocFreq("prothymosin") != 3 || ix.DocFreq("absent") != 0 {
		t.Errorf("DocFreq wrong")
	}
	p := ix.Postings("cancer")
	if !sort.SliceIsSorted(p, func(i, j int) bool { return p[i] < p[j] }) {
		t.Errorf("postings unsorted: %v", p)
	}
}

func TestDuplicateTermsInDocDeduped(t *testing.T) {
	ix := BuildFromDocs(map[corpus.CitationID][]string{
		7: {"x", "x", "x"},
	})
	if got := ix.Postings("x"); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Postings = %v", got)
	}
}

func TestIntersectMatchesNaive(t *testing.T) {
	err := quick.Check(func(aRaw, bRaw []uint16) bool {
		a := toSortedIDs(aRaw)
		b := toSortedIDs(bRaw)
		got := intersect(a, b)
		want := naiveIntersect(a, b)
		return equalIDs(got, want)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// Force the galloping branch: |b| >= 16|a|.
	a := []corpus.CitationID{5, 100, 999, 5000}
	b := make([]corpus.CitationID, 0, 200)
	for i := 0; i < 200; i++ {
		b = append(b, corpus.CitationID(i*25))
	}
	got := intersect(a, b)
	want := naiveIntersect(a, b)
	if !equalIDs(got, want) {
		t.Fatalf("gallop intersect = %v, want %v", got, want)
	}
}

func TestUnionMatchesNaive(t *testing.T) {
	err := quick.Check(func(aRaw, bRaw []uint16) bool {
		a := toSortedIDs(aRaw)
		b := toSortedIDs(bRaw)
		got := union(a, b)
		want := naiveUnion(a, b)
		return equalIDs(got, want)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildFromCorpusEndToEnd(t *testing.T) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 11, Nodes: 400, TopLevel: 8, MaxDepth: 7})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 2, Citations: 200, MeanConcepts: 15, FirstID: 50, YearLo: 2000, YearHi: 2008})
	ix := Build(c)
	if ix.Docs() != 200 {
		t.Fatalf("Docs = %d", ix.Docs())
	}
	// Every citation must be findable by each of its own terms.
	for i := 0; i < c.Len(); i++ {
		cit := c.At(i)
		for _, term := range cit.Terms {
			if !containsID(ix.Postings(term), cit.ID) {
				t.Fatalf("citation %d missing from postings of its own term %q", cit.ID, term)
			}
		}
	}
	// Conjunction of two terms == intersection of single-term searches.
	cit := c.At(0)
	if len(cit.Terms) >= 2 {
		q := cit.Terms[0] + " " + cit.Terms[1]
		got := ix.Search(q)
		want := naiveIntersect(ix.Postings(cit.Terms[0]), ix.Postings(cit.Terms[1]))
		if !equalIDs(got, want) {
			t.Fatalf("Search(%q) = %v, want %v", q, got, want)
		}
	}
}

// --- helpers ---

// BuildFromDocs indexes an explicit (id, terms) association.
func BuildFromDocs(docs map[corpus.CitationID][]string) *Index {
	ix := &Index{postings: make(map[string][]corpus.CitationID)}
	for id, terms := range docs {
		ix.add(id, terms)
	}
	ix.finish()
	return ix
}

func equalIDs(a, b []corpus.CitationID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsID(list []corpus.CitationID, id corpus.CitationID) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}

func toSortedIDs(raw []uint16) []corpus.CitationID {
	set := map[corpus.CitationID]struct{}{}
	for _, v := range raw {
		set[corpus.CitationID(v)] = struct{}{}
	}
	out := make([]corpus.CitationID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveIntersect(a, b []corpus.CitationID) []corpus.CitationID {
	inB := map[corpus.CitationID]bool{}
	for _, v := range b {
		inB[v] = true
	}
	out := []corpus.CitationID{}
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func naiveUnion(a, b []corpus.CitationID) []corpus.CitationID {
	set := map[corpus.CitationID]struct{}{}
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		set[v] = struct{}{}
	}
	out := make([]corpus.CitationID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func BenchmarkSearch(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 11, Nodes: 2000, TopLevel: 16, MaxDepth: 9})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 2, Citations: 5000, MeanConcepts: 30, FirstID: 1, YearLo: 2000, YearHi: 2008})
	ix := Build(c)
	q := c.At(0).Terms[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Search(q)
	}
}
