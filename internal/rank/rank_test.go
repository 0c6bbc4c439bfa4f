package rank

import (
	"sort"
	"testing"
	"testing/quick"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
)

// fixtureScorer builds a tiny corpus with controlled term distributions.
func fixtureScorer(t *testing.T) (*Scorer, *corpus.Corpus) {
	t.Helper()
	return scorerOver(t, []corpus.Citation{
		{ID: 1, Title: "a", Year: 2001, Terms: []string{"prothymosin", "cancer"}},
		{ID: 2, Title: "b", Year: 2005, Terms: []string{"prothymosin", "alpha", "cancer", "cell", "histone"}},
		{ID: 3, Title: "c", Year: 2003, Terms: []string{"cancer"}},
		{ID: 4, Title: "d", Year: 2007, Terms: []string{"prothymosin", "cancer"}},
		{ID: 5, Title: "e", Year: 2002, Terms: []string{"histone", "chromatin"}},
	})
}

// scorerOver builds a scorer over the given citations, each annotated
// with the one concept of a two-node hierarchy.
func scorerOver(t *testing.T, cits []corpus.Citation) (*Scorer, *corpus.Corpus) {
	t.Helper()
	b := hierarchy.NewBuilder("root")
	c1 := b.Add(0, "c1")
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cits {
		cits[i].Concepts = []hierarchy.ConceptID{c1}
	}
	corp, err := corpus.New(tree, cits, make([]int64, tree.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return NewScorer(corp, index.Build(corp)), corp
}

func TestScoreBasics(t *testing.T) {
	s, _ := fixtureScorer(t)
	// A citation containing both query terms outscores one with a subset.
	both := s.Score("prothymosin cancer", 1)
	one := s.Score("prothymosin cancer", 3)
	none := s.Score("prothymosin cancer", 5)
	if !(both > one && one > none) {
		t.Fatalf("scores not ordered: both=%v one=%v none=%v", both, one, none)
	}
	if none != 0 {
		t.Fatalf("no-match score = %v, want 0", none)
	}
	if s.Score("", 1) != 0 {
		t.Fatal("empty query should score 0")
	}
	if s.Score("cancer", 999) != 0 {
		t.Fatal("unknown citation should score 0")
	}
}

func TestRareTermsWeighMore(t *testing.T) {
	s, _ := fixtureScorer(t)
	// "chromatin" (df=1) is rarer than "cancer" (df=4): for two documents
	// of equal length, the rare term must contribute more.
	chromatin := s.Score("chromatin", 5) // doc 5 has 2 terms
	cancer := s.Score("cancer", 1)       // doc 1 has 2 terms
	if chromatin <= cancer {
		t.Fatalf("rare-term score %v not above common-term score %v", chromatin, cancer)
	}
}

func TestLengthNormalization(t *testing.T) {
	s, _ := fixtureScorer(t)
	// Docs 1 and 2 both contain "prothymosin"; doc 2 is longer and must
	// score lower for the single term.
	short := s.Score("prothymosin", 1)
	long := s.Score("prothymosin", 2)
	if short <= long {
		t.Fatalf("length normalization inverted: short=%v long=%v", short, long)
	}
}

func TestRankOrderAndTies(t *testing.T) {
	s, _ := fixtureScorer(t)
	ranked := s.Rank("prothymosin cancer", []corpus.CitationID{1, 2, 3, 4, 5})
	if len(ranked) != 5 {
		t.Fatalf("len = %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Fatalf("not descending at %d", i)
		}
	}
	// Docs 1 and 4 are term-identical; the more recent (4, year 2007)
	// must come first.
	pos := map[corpus.CitationID]int{}
	for i, r := range ranked {
		pos[r.ID] = i
	}
	if pos[4] > pos[1] {
		t.Fatalf("recency tiebreak failed: %v", ranked)
	}

	// Docs 6 and 9 are term-identical and from the same year: ascending ID
	// orders them, in whatever order they are listed.
	s, _ = scorerOver(t, []corpus.Citation{
		{ID: 9, Title: "f", Year: 2004, Terms: []string{"prothymosin", "cancer"}},
		{ID: 6, Title: "g", Year: 2004, Terms: []string{"prothymosin", "cancer"}},
		{ID: 7, Title: "h", Year: 2004, Terms: []string{"histone"}},
	})
	for _, ids := range [][]corpus.CitationID{{9, 6, 7}, {7, 6, 9}} {
		ranked := s.Rank("prothymosin cancer", ids)
		if ranked[0].Score != ranked[1].Score || ranked[0].ID != 6 || ranked[1].ID != 9 || ranked[2].ID != 7 {
			t.Fatalf("Rank(%v) = %v, want 6 and 9 tied, then 7", ids, ranked)
		}
	}
}

// TestRankAllocsIndependentOfListing: Rank tokenizes the query and weighs
// its terms once per call, not once per citation, so a longer listing
// allocates no more.
func TestRankAllocsIndependentOfListing(t *testing.T) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 71, Nodes: 200, TopLevel: 8, MaxDepth: 7})
	corp := corpus.Generate(tree, corpus.GenConfig{Seed: 72, Citations: 300, MeanConcepts: 15, FirstID: 1, YearLo: 2000, YearHi: 2008})
	s := NewScorer(corp, index.Build(corp))
	ids := corp.IDs()
	allocs := func(ids []corpus.CitationID) float64 {
		return testing.AllocsPerRun(20, func() { s.Rank("the study of effects", ids) })
	}
	if few, all := allocs(ids[:37]), allocs(ids); few != all {
		t.Fatalf("Rank allocates %v times for 37 citations and %v for %d", few, all, len(ids))
	}
}

func TestScoreNonNegativeProperty(t *testing.T) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 91, Nodes: 300, TopLevel: 8, MaxDepth: 7})
	corp := corpus.Generate(tree, corpus.GenConfig{Seed: 92, Citations: 150, MeanConcepts: 15, FirstID: 1, YearLo: 2000, YearHi: 2008})
	s := NewScorer(corp, index.Build(corp))
	ids := corp.IDs()
	err := quick.Check(func(qi, di uint16) bool {
		q := corp.At(int(qi) % corp.Len()).Title
		id := ids[int(di)%len(ids)]
		return s.Score(q, id) >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankIsPermutation(t *testing.T) {
	s, corp := fixtureScorer(t)
	ids := corp.IDs()
	ranked := s.Rank("cancer histone", ids)
	got := make([]corpus.CitationID, len(ranked))
	for i, r := range ranked {
		got[i] = r.ID
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("Rank dropped or duplicated IDs: %v", got)
		}
	}
}

func TestSelfRetrievalQuality(t *testing.T) {
	// Querying with a citation's own title must rank that citation first
	// (or tied-first) among a sample — a standard sanity check.
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 93, Nodes: 400, TopLevel: 8, MaxDepth: 7})
	corp := corpus.Generate(tree, corpus.GenConfig{Seed: 94, Citations: 200, MeanConcepts: 15, FirstID: 1, YearLo: 2000, YearHi: 2008})
	s := NewScorer(corp, index.Build(corp))
	ids := corp.IDs()
	hits := 0
	for i := 0; i < 20; i++ {
		self := corp.At(i * 7)
		ranked := s.Rank(self.Title, ids)
		topScore := ranked[0].Score
		if s.Score(self.Title, self.ID) >= topScore-1e-9 {
			hits++
		}
	}
	if hits < 18 {
		t.Fatalf("self-retrieval hit rate %d/20", hits)
	}
}
