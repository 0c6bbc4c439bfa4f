package hierarchy

import (
	"strings"
	"testing"
	"testing/quick"

	"bionav/internal/rng"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 7, Nodes: 2000, TopLevel: 16, MaxDepth: 9}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		na, nb := a.Node(ConceptID(i)), b.Node(ConceptID(i))
		if na.Label != nb.Label || na.Parent != nb.Parent || na.TreeID != nb.TreeID {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
	}
}

func TestGenerateSeedChangesTree(t *testing.T) {
	a := Generate(GenConfig{Seed: 1, Nodes: 500, TopLevel: 8, MaxDepth: 8})
	b := Generate(GenConfig{Seed: 2, Nodes: 500, TopLevel: 8, MaxDepth: 8})
	same := true
	for i := 0; i < a.Len() && same; i++ {
		if a.Node(ConceptID(i)).Label != b.Node(ConceptID(i)).Label {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical trees")
	}
}

func TestGenerateExactSizeAndValidity(t *testing.T) {
	for _, n := range []int{20, 137, 1000, 4800} {
		cfg := GenConfig{Seed: 42, Nodes: n, TopLevel: 16, MaxDepth: 11}
		tr := Generate(cfg)
		if tr.Len() != n {
			t.Errorf("Nodes=%d: got %d nodes", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("Nodes=%d: Validate: %v", n, err)
		}
		if got := len(tr.Children(tr.Root())); got != 16 {
			t.Errorf("Nodes=%d: top-level = %d, want 16", n, got)
		}
	}
}

func TestGenerateMeSHShape(t *testing.T) {
	tr := Generate(DefaultGenConfig())
	s := tr.ComputeStats()
	if s.Nodes != 48000 {
		t.Errorf("Nodes = %d, want 48000", s.Nodes)
	}
	if s.TopLevel != 112 {
		t.Errorf("TopLevel = %d, want 112 (MeSH subcategories)", s.TopLevel)
	}
	if s.Height < 8 || s.Height > 11 {
		t.Errorf("Height = %d, want deep tree (8..11)", s.Height)
	}
	// "The MeSH hierarchy is quite bushy on the upper levels" (§I):
	// average width of levels 1-3 must dominate the deep levels.
	upper := float64(s.LevelWidths[1]+s.LevelWidths[2]+s.LevelWidths[3]) / 3
	if upper < 100 {
		t.Errorf("upper-level mean width = %.0f, want bushy (>100)", upper)
	}
	if s.MaxFanout < 15 {
		t.Errorf("MaxFanout = %d, want wide nodes near the top", s.MaxFanout)
	}
}

func TestGenerateDepthLimit(t *testing.T) {
	tr := Generate(GenConfig{Seed: 5, Nodes: 3000, TopLevel: 4, MaxDepth: 5})
	if tr.Height() > 5 {
		t.Fatalf("Height = %d exceeds MaxDepth 5", tr.Height())
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Nodes < TopLevel+1")
		}
	}()
	Generate(GenConfig{Seed: 1, Nodes: 3, TopLevel: 16, MaxDepth: 5})
}

func TestSplitBudgetProperties(t *testing.T) {
	src := rng.New(99)
	err := quick.Check(func(totalRaw uint16, partsRaw uint8) bool {
		total := int(totalRaw % 5000)
		parts := int(partsRaw%20) + 1
		out := splitBudget(src, total, parts, 0.7)
		if len(out) != parts {
			return false
		}
		sum := 0
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == total
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLabelMakerUnique(t *testing.T) {
	m := newLabelMaker(rng.New(1))
	src := rng.New(2)
	seen := make(map[string]bool)
	for i := 0; i < 20000; i++ {
		l := m.concept(src, 1+i%8)
		if seen[l] {
			t.Fatalf("duplicate label %q at %d", l, i)
		}
		if strings.TrimSpace(l) != l || l == "" {
			t.Fatalf("untrimmed or empty label %q", l)
		}
		seen[l] = true
	}
}

func BenchmarkGenerate48k(b *testing.B) {
	cfg := DefaultGenConfig()
	for i := 0; i < b.N; i++ {
		tr := Generate(cfg)
		if tr.Len() != cfg.Nodes {
			b.Fatal("bad size")
		}
	}
}
