package corpus

import (
	"testing"

	"bionav/internal/hierarchy"
)

// TestApplyFreshAndUpsert pins Corpus.Apply's copy-on-write contract:
// fresh IDs append, an existing ID is replaced in place (upsert), the
// receiver never changes, and per-concept global counts move by
// incremental deltas — +1 per new annotation, never a decrement — so the
// selectivity invariant cnt(c) >= |res(c)| survives any batch. The term
// total follows both the fresh citation and the upsert's shorter list.
func TestApplyFreshAndUpsert(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	orig := c.At(0)
	origTitle := orig.Title
	origCount := c.GlobalCount(orig.Concepts[0])

	fresh := Citation{
		ID: 999001, Title: "fresh", Year: 2009,
		Terms:    []string{"fresh"},
		Concepts: append([]hierarchy.ConceptID(nil), orig.Concepts[:2]...),
	}
	upsert := *orig
	upsert.Title = "rewritten"
	upsert.Terms = []string{"rewritten"}
	// Drop the first annotation, keep the rest: the dropped concept's
	// count must NOT go down.
	upsert.Concepts = append([]hierarchy.ConceptID(nil), orig.Concepts[1:]...)

	next, err := c.Apply([]Citation{fresh, upsert})
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != c.Len()+1 {
		t.Fatalf("Len = %d, want %d (upsert must not append)", next.Len(), c.Len()+1)
	}
	if got, ok := next.Get(999001); !ok || got.Title != "fresh" {
		t.Fatalf("fresh citation: %v, %v", got, ok)
	}
	if got, _ := next.Get(orig.ID); got.Title != "rewritten" {
		t.Fatalf("upsert served %q", got.Title)
	}
	// fresh annotated concepts[0], upsert retracted it: net +1, no decrement.
	if got := next.GlobalCount(orig.Concepts[0]); got != origCount+1 {
		t.Fatalf("GlobalCount = %d, want %d", got, origCount+1)
	}
	wantTerms := recountTerms(c) + 1 + 1 - len(orig.Terms)
	if got := next.TotalTerms(); got != recountTerms(next) || got != wantTerms {
		t.Fatalf("TotalTerms = %d, want %d (recount %d)", got, wantTerms, recountTerms(next))
	}
	// Receiver untouched.
	if c.At(0).Title != origTitle || c.Len() != 300 || c.TotalTerms() != recountTerms(c) {
		t.Fatal("Apply mutated the receiver")
	}
	if _, ok := c.Get(999001); ok {
		t.Fatal("receiver sees the fresh citation")
	}
}

// TestApplyWithinBatchLastWins: two records for one ID in a single batch
// resolve to the later one, matching the store codec's documented
// duplicate-frame semantic — for a fresh ID and an existing one alike,
// and in the term total too.
func TestApplyWithinBatchLastWins(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	cc := c.At(0).Concepts[:1]
	old := c.At(1)
	batch := []Citation{
		{ID: 999002, Title: "first version", Year: 2009, Terms: []string{"a1", "b1", "c1"}, Concepts: cc},
		{ID: old.ID, Title: "first rewrite", Year: 2009, Terms: []string{"a1", "b1", "c1"}, Concepts: cc},
		{ID: 999002, Title: "second version", Year: 2009, Terms: []string{"d1"}, Concepts: cc},
		{ID: old.ID, Title: "second rewrite", Year: 2009, Terms: []string{"d1", "e1"}, Concepts: cc},
	}
	next, err := c.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != c.Len()+1 {
		t.Fatalf("Len = %d, want %d", next.Len(), c.Len()+1)
	}
	if got, _ := next.Get(999002); got.Title != "second version" {
		t.Fatalf("served %q, want the later record", got.Title)
	}
	if got, _ := next.Get(old.ID); got.Title != "second rewrite" {
		t.Fatalf("served %q, want the later rewrite", got.Title)
	}
	wantTerms := recountTerms(c) + 1 + 2 - len(old.Terms)
	if got := next.TotalTerms(); got != recountTerms(next) || got != wantTerms {
		t.Fatalf("TotalTerms = %d, want %d (recount %d)", got, wantTerms, recountTerms(next))
	}
}

// recountTerms sums the term lists of c's citations: the figure
// Corpus.TotalTerms keeps without a scan.
func recountTerms(c *Corpus) int {
	n := 0
	for i := 0; i < c.Len(); i++ {
		n += len(c.At(i).Terms)
	}
	return n
}

// TestApplyRejectsBadBatches: empty batches and unknown concepts fail,
// and a failed Apply leaves no partial state behind (the receiver is the
// only corpus there is).
func TestApplyRejectsBadBatches(t *testing.T) {
	tree := testTree(t)
	c := smallCorpus(t, tree)
	if _, err := c.Apply(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := Citation{ID: 999003, Title: "bad", Concepts: []hierarchy.ConceptID{hierarchy.ConceptID(tree.Len())}}
	if _, err := c.Apply([]Citation{bad}); err == nil {
		t.Fatal("unknown concept accepted")
	}
	if _, ok := c.Get(999003); ok {
		t.Fatal("failed Apply leaked state into the receiver")
	}
}
