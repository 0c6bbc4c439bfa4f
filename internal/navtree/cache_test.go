package navtree

import (
	"testing"

	"bionav/internal/corpus"
)

// qk builds an epoch-0 cache key, the common case in these tests.
func qk(q string) Key { return Key{Query: q} }

func TestNormalizeQuery(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"Prothymosin", "prothymosin"},
		{"  cancer   cell  ", "cancer cell"},
		{"Apoptosis AND Growth", "apoptosis AND growth"},
		// Operators canonicalize to uppercase whatever their spelling: the
		// query parser matches them case-insensitively, so `heart and
		// attack` and `heart AND attack` are one query and must share one
		// cache key.
		{"apoptosis and growth", "apoptosis AND growth"},
		{"p53 oR mdm2", "p53 OR mdm2"},
		{"Heart Not Mouse", "heart NOT mouse"},
		{"(P53 OR MDM2) NOT Mouse", "(p53 OR mdm2) NOT mouse"},
		{"androgen oration nothing", "androgen oration nothing"}, // words containing operators stay terms
		{"\tTNF\n alpha", "tnf alpha"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Normalization is idempotent.
	for _, c := range cases {
		if got := NormalizeQuery(c.want); got != c.want {
			t.Errorf("NormalizeQuery not idempotent on %q: got %q", c.want, got)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	f := newFixture(t)
	trees := make([]*Tree, 4)
	keys := []Key{qk("a"), qk("b"), qk("c"), qk("d")}
	for i := range trees {
		trees[i] = f.build(t, 1)
	}
	c := NewCache(2)
	c.Add(keys[0], trees[0])
	c.Add(keys[1], trees[1])

	// Touch "a" so "b" becomes least recently used.
	if got, ok := c.Get(keys[0]); !ok || got != trees[0] {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	c.Add(keys[2], trees[2]) // evicts "b"
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("b should have been evicted")
	}
	if got, ok := c.Get(keys[2]); !ok || got != trees[2] {
		t.Fatal("c missing after insert")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Re-adding an existing key refreshes the tree without growing.
	c.Add(keys[2], trees[3])
	if got, _ := c.Get(keys[2]); got != trees[3] {
		t.Fatal("Add on existing key did not replace the tree")
	}
	if c.Len() != 2 {
		t.Fatalf("Len after re-add = %d, want 2", c.Len())
	}

	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("Stats = (%d, %d), want (3, 1)", hits, misses)
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0) // clamps to 1
	f := newFixture(t)
	c.Add(qk("x"), f.build(t, 1))
	c.Add(qk("y"), f.build(t, 2))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get(qk("x")); ok {
		t.Fatal("x should have been evicted by capacity-1 cache")
	}
}

// TestCacheEpochKeys: the same query under two epochs is two independent
// entries, and DropEpochsBefore evicts exactly the stale epochs — the
// versioned invalidation an ingest swap performs. Same-epoch entries keep
// hitting afterwards.
func TestCacheEpochKeys(t *testing.T) {
	f := newFixture(t)
	old := f.build(t, 1)
	fresh := f.build(t, 1, 2)
	c := NewCache(8)

	c.Add(Key{Epoch: 0, Query: "p53"}, old)
	c.Add(Key{Epoch: 1, Query: "p53"}, fresh)
	c.Add(Key{Epoch: 1, Query: "mdm2"}, fresh)

	if got, ok := c.Get(Key{Epoch: 0, Query: "p53"}); !ok || got != old {
		t.Fatal("epoch-0 entry unreachable while pinned sessions still need it")
	}
	if got, ok := c.Get(Key{Epoch: 1, Query: "p53"}); !ok || got != fresh {
		t.Fatal("epoch-1 entry should be independent of epoch 0")
	}

	if dropped := c.DropEpochsBefore(1); dropped != 1 {
		t.Fatalf("DropEpochsBefore(1) dropped %d entries, want 1", dropped)
	}
	if _, ok := c.Get(Key{Epoch: 0, Query: "p53"}); ok {
		t.Fatal("stale epoch-0 entry survived DropEpochsBefore(1)")
	}
	for _, q := range []string{"p53", "mdm2"} {
		if _, ok := c.Get(Key{Epoch: 1, Query: q}); !ok {
			t.Fatalf("current-epoch entry %q was wrongly invalidated", q)
		}
	}
	if dropped := c.DropEpochsBefore(1); dropped != 0 {
		t.Fatalf("second DropEpochsBefore(1) dropped %d entries, want 0", dropped)
	}
}

// TestResultIndexesMatchResults checks the precomputed per-node result-index
// slices agree with mapping Results through the oracle's citation → dense
// index map — the invariant NewActiveTree's bitset construction relies on.
func TestResultIndexesMatchResults(t *testing.T) {
	f := newFixture(t)
	ids := []corpus.CitationID{1, 2, 3, 4}
	nt := f.build(t, ids...)
	resultIdx := oracleBuild(f.corp, ids).resultIdx
	for id := NodeID(0); int(id) < nt.Len(); id++ {
		results := nt.Results(id)
		idxs := nt.ResultIndexes(id)
		if len(results) != len(idxs) {
			t.Fatalf("node %d: %d results but %d indexes", id, len(results), len(idxs))
		}
		for j, cit := range results {
			want, ok := resultIdx[cit]
			if !ok {
				t.Fatalf("node %d: citation %d missing from the oracle's result indexes", id, cit)
			}
			if int(idxs[j]) != want {
				t.Fatalf("node %d result %d: index %d, want %d", id, j, idxs[j], want)
			}
		}
	}
	if nt.ResultIndexes(nt.Root()) != nil {
		t.Fatal("root should have no attached result indexes")
	}
}
