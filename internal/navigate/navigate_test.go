package navigate

import (
	"testing"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

func buildNav(t *testing.T, seed uint64, citations, meanConcepts int) *navtree.Tree {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: seed, Nodes: 1500, TopLevel: 12, MaxDepth: 9})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: seed + 7, Citations: citations, MeanConcepts: meanConcepts,
		FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return nav
}

// deepTarget picks a reasonably deep node with few attached citations — the
// kind of specific concept Table I uses as navigation target.
func deepTarget(t *testing.T, nav *navtree.Tree) navtree.NodeID {
	t.Helper()
	best, bestDepth := -1, -1
	for i := 1; i < nav.Len(); i++ {
		d := nav.Depth(i)
		if d > bestDepth && nav.NumResults(i) >= 2 && nav.NumResults(i) <= 30 {
			best, bestDepth = i, d
		}
	}
	if best == -1 {
		t.Fatal("no suitable target")
	}
	return best
}

func TestSessionExpandAccounting(t *testing.T) {
	nav := buildNav(t, 101, 150, 30)
	s := NewSession(nav, core.NewHeuristicReducedOpt())
	revealed, err := s.Expand(nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cost()
	if c.Expands != 1 || c.ConceptsRevealed != len(revealed) {
		t.Fatalf("cost = %+v after revealing %d", c, len(revealed))
	}
	if c.Navigation() != 1+len(revealed) {
		t.Fatalf("Navigation = %d", c.Navigation())
	}
	if len(s.Log()) != 1 || s.Log()[0].Kind != ActionExpand {
		t.Fatalf("log = %+v", s.Log())
	}
}

func TestSessionShowResults(t *testing.T) {
	nav := buildNav(t, 102, 120, 25)
	s := NewSession(nav, core.StaticAll{})
	// SHOWRESULTS on the root lists the whole query result.
	cits, err := s.ShowResults(nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(cits) != nav.DistinctTotal() {
		t.Fatalf("listed %d, want %d", len(cits), nav.DistinctTotal())
	}
	for i := 1; i < len(cits); i++ {
		if cits[i-1] >= cits[i] {
			t.Fatal("citations not sorted")
		}
	}
	if s.Cost().CitationsListed != len(cits) {
		t.Fatalf("cost = %+v", s.Cost())
	}
	if s.Cost().Total() != s.Cost().Navigation()+len(cits) {
		t.Fatal("Total inconsistent")
	}
}

func TestSessionShowResultsHiddenNode(t *testing.T) {
	nav := buildNav(t, 103, 100, 25)
	s := NewSession(nav, core.StaticAll{})
	// Any non-root node is hidden initially.
	if _, err := s.ShowResults(1); err == nil {
		t.Fatal("SHOWRESULTS on hidden node succeeded")
	}
	if err := s.Ignore(1); err == nil {
		t.Fatal("IGNORE on hidden node succeeded")
	}
}

func TestSessionBacktrack(t *testing.T) {
	nav := buildNav(t, 104, 100, 25)
	s := NewSession(nav, core.NewHeuristicReducedOpt())
	if err := s.Backtrack(); err == nil {
		t.Fatal("backtrack with empty history succeeded")
	}
	if _, err := s.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if err := s.Backtrack(); err != nil {
		t.Fatal(err)
	}
	roots := s.Active().VisibleRoots()
	if len(roots) != 1 {
		t.Fatalf("roots after backtrack = %v", roots)
	}
	// Cost is not refunded.
	if s.Cost().Expands != 1 {
		t.Fatalf("cost = %+v", s.Cost())
	}
	kinds := []ActionKind{ActionExpand, ActionBacktrack}
	for i, a := range s.Log() {
		if a.Kind != kinds[i] {
			t.Fatalf("log = %+v", s.Log())
		}
	}
}

func TestSessionIgnoreIsFree(t *testing.T) {
	nav := buildNav(t, 105, 100, 25)
	s := NewSession(nav, core.StaticAll{})
	before := s.Cost()
	if err := s.Ignore(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if s.Cost() != before {
		t.Fatal("IGNORE changed cost")
	}
}

func TestSimulateReachesTarget(t *testing.T) {
	nav := buildNav(t, 106, 200, 40)
	target := deepTarget(t, nav)
	for _, pol := range []core.Policy{
		core.NewHeuristicReducedOpt(),
		core.StaticAll{},
		core.StaticTopK{K: 10},
	} {
		res, err := Simulate(nav, pol, []navtree.NodeID{target}, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if !res.Reached {
			t.Fatalf("%s: target not reached", pol.Name())
		}
		if res.Cost.Navigation() <= 0 || len(res.Steps) != res.Cost.Expands {
			t.Fatalf("%s: inconsistent result %+v", pol.Name(), res.Cost)
		}
	}
}

func TestSimulateBioNavBeatsStatic(t *testing.T) {
	// The headline claim (§VIII-A): BioNav's navigation cost is
	// substantially below static navigation. Requiring strict improvement
	// on every seed would overfit; require it on aggregate and never worse
	// than 1.5x on any single query.
	seeds := []uint64{110, 111, 112, 113, 114}
	totalBio, totalStatic := 0, 0
	for _, seed := range seeds {
		nav := buildNav(t, seed, 250, 50)
		target := deepTarget(t, nav)
		bio, err := Simulate(nav, core.NewHeuristicReducedOpt(), []navtree.NodeID{target}, false, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		static, err := Simulate(nav, core.StaticAll{}, []navtree.NodeID{target}, false, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, s := bio.Cost.Navigation(), static.Cost.Navigation()
		t.Logf("seed %d: BioNav %d vs Static %d (expands %d vs %d)",
			seed, b, s, bio.Cost.Expands, static.Cost.Expands)
		if b > s*3/2 {
			t.Errorf("seed %d: BioNav cost %d far exceeds static %d", seed, b, s)
		}
		totalBio += b
		totalStatic += s
	}
	if totalBio >= totalStatic {
		t.Fatalf("aggregate BioNav cost %d not below static %d", totalBio, totalStatic)
	}
}

func TestSimulateShowResultsCost(t *testing.T) {
	nav := buildNav(t, 107, 150, 30)
	target := deepTarget(t, nav)
	res, err := Simulate(nav, core.NewHeuristicReducedOpt(), []navtree.NodeID{target}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.CitationsListed <= 0 {
		t.Fatalf("no citations listed: %+v", res.Cost)
	}
	if res.Cost.Total() != res.Cost.Navigation()+res.Cost.CitationsListed {
		t.Fatal("Total mismatch")
	}
}

func TestSimulateRecordsReducedSizes(t *testing.T) {
	nav := buildNav(t, 108, 200, 40)
	target := deepTarget(t, nav)
	h := core.NewHeuristicReducedOpt()
	res, err := Simulate(nav, h, []navtree.NodeID{target}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Steps {
		if st.ReducedSize < 2 || st.ReducedSize > h.K {
			t.Fatalf("step %d: reduced size %d out of [2,%d]", i, st.ReducedSize, h.K)
		}
	}
	if res.AvgElapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestSimulateRejectsBadTarget(t *testing.T) {
	nav := buildNav(t, 109, 80, 25)
	if _, err := Simulate(nav, core.StaticAll{}, []navtree.NodeID{0}, false, nil); err == nil {
		t.Fatal("root target accepted")
	}
	if _, err := Simulate(nav, core.StaticAll{}, []navtree.NodeID{nav.Len()}, false, nil); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestActionKindString(t *testing.T) {
	want := map[ActionKind]string{
		ActionExpand: "EXPAND", ActionShowResults: "SHOWRESULTS",
		ActionIgnore: "IGNORE", ActionBacktrack: "BACKTRACK",
		ActionKind(42): "ActionKind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestSimulateToTargetsMulti(t *testing.T) {
	nav := buildNav(t, 401, 220, 45)
	// Two independent deep targets.
	first := deepTarget(t, nav)
	second := -1
	for i := nav.Len() - 1; i > 0; i-- {
		if i == first || nav.IsAncestor(first, i) || nav.IsAncestor(i, first) {
			continue
		}
		if nav.Depth(i) >= 3 && nav.NumResults(i) >= 2 {
			second = i
			break
		}
	}
	if second == -1 {
		t.Skip("no second target available")
	}
	multi, err := Simulate(nav, core.NewHeuristicReducedOpt(), []navtree.NodeID{first, second}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Reached {
		t.Fatal("targets not reached")
	}
	single, err := Simulate(nav, core.NewHeuristicReducedOpt(), []navtree.NodeID{first}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reaching two targets costs at least as much as reaching the first.
	if multi.Cost.Navigation() < single.Cost.Navigation() {
		t.Fatalf("multi-target cost %d below single-target %d",
			multi.Cost.Navigation(), single.Cost.Navigation())
	}
	if _, err := Simulate(nav, core.StaticAll{}, nil, false, nil); err == nil {
		t.Fatal("empty target list accepted")
	}
	if _, err := Simulate(nav, core.StaticAll{}, []navtree.NodeID{0}, false, nil); err == nil {
		t.Fatal("root target accepted")
	}
}
