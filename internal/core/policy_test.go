package core

import (
	"context"
	"math"
	"testing"

	"bionav/internal/navtree"
)

func TestHeuristicCutIsApplicable(t *testing.T) {
	at := bigActiveTree(t, 61, 250)
	root := at.Nav().Root()
	pol := NewHeuristicReducedOpt()

	cut, err := pol.ChooseCut(context.Background(), at, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) == 0 {
		t.Fatal("empty cut")
	}
	lower, err := at.Expand(root, cut)
	if err != nil {
		t.Fatalf("cut not applicable: %v", err)
	}
	if err := at.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The paper: expansions reveal a handful of concepts, not hundreds.
	if len(lower) >= 50 {
		t.Fatalf("heuristic revealed %d concepts; expected a selective cut", len(lower))
	}
}

func TestHeuristicRepeatedExpansionTerminates(t *testing.T) {
	at := bigActiveTree(t, 62, 200)
	pol := NewHeuristicReducedOpt()
	// Repeatedly expand the first expandable component; within a bounded
	// number of steps every component must become a singleton.
	for step := 0; step < 10000; step++ {
		var target navtree.NodeID = -1
		for _, r := range at.VisibleRoots() {
			if at.ComponentSize(r) > 1 {
				target = r
				break
			}
		}
		if target == -1 {
			if err := at.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return // fully expanded
		}
		cut, err := pol.ChooseCut(context.Background(), at, target)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if _, err := at.Expand(target, cut); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	t.Fatal("expansion did not terminate")
}

func TestHeuristicEqualsOptOnSmallComponents(t *testing.T) {
	// When the component fits in the reduced-tree budget, the heuristic
	// must produce exactly the optimal cut (§VI-B reduces to Opt-EdgeCut).
	f := newPaperFixture(t)
	root := f.nodes["root"]
	model := CostModel{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true}
	h := &HeuristicReducedOpt{K: 20, Model: model}
	o := &OptEdgeCutPolicy{Model: model}

	hCut, err := h.ChooseCut(context.Background(), f.at, root)
	if err != nil {
		t.Fatal(err)
	}
	oCut, err := o.ChooseCut(context.Background(), f.at, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(hCut) != len(oCut) {
		t.Fatalf("heuristic cut %v != optimal cut %v", hCut, oCut)
	}
	for i := range hCut {
		if hCut[i] != oCut[i] {
			t.Fatalf("heuristic cut %v != optimal cut %v", hCut, oCut)
		}
	}
}

func TestHeuristicSingletonRejected(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	// Isolate a leaf into a singleton component.
	if _, err := at.Expand(f.nodes["root"], []Edge{f.edge(t, "apo")}); err != nil {
		t.Fatal(err)
	}
	pol := NewHeuristicReducedOpt()
	if _, err := pol.ChooseCut(context.Background(), at, f.nodes["apo"]); err == nil {
		t.Fatal("ChooseCut on singleton succeeded")
	}
	if _, err := (&OptEdgeCutPolicy{Model: DefaultCostModel()}).ChooseCut(context.Background(), at, f.nodes["apo"]); err == nil {
		t.Fatal("Opt ChooseCut on singleton succeeded")
	}
}

func TestStaticAllRevealsEveryChild(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	cut, err := StaticAll{}.ChooseCut(context.Background(), at, f.nodes["root"])
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != len(at.Nav().Children(f.nodes["root"])) {
		t.Fatalf("static cut %v misses children", cut)
	}
	lower, err := at.Expand(f.nodes["root"], cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(lower) != len(cut) {
		t.Fatalf("revealed %d", len(lower))
	}
	// Upper component is the singleton root.
	if at.ComponentSize(f.nodes["root"]) != 1 {
		t.Fatal("static expansion left nodes with the root")
	}
}

func TestStaticTopKRanksByCount(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	// Expand bio's component: bio has children phys and gen beneath root.
	if _, err := at.Expand(f.nodes["root"], []Edge{f.edge(t, "bio")}); err != nil {
		t.Fatal(err)
	}
	pol := StaticTopK{K: 1}
	cut, err := pol.ChooseCut(context.Background(), at, f.nodes["bio"])
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != 1 {
		t.Fatalf("cut = %v", cut)
	}
	// phys's subtree holds more distinct citations than gen's.
	if cut[0].Child != f.nodes["phys"] {
		t.Fatalf("top-1 child = %d, want phys %d", cut[0].Child, f.nodes["phys"])
	}
	// K larger than the child count clamps.
	cut, err = StaticTopK{K: 99}.ChooseCut(context.Background(), at, f.nodes["bio"])
	if err != nil || len(cut) != 2 {
		t.Fatalf("clamped cut = %v, %v", cut, err)
	}
}

func TestOptPolicyExpectedCostNotWorseThanStaticPlay(t *testing.T) {
	// Sanity link between the optimizer and the cost semantics: the optimal
	// expected cost is no worse than the expected cost of the static
	// all-children first cut evaluated under the same model.
	f := newPaperFixture(t)
	model := CostModel{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true}
	root := f.nodes["root"]
	ct, err := exactCompTree(f.at, root)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := optExpectedCost(context.Background(), ct, model)
	if err != nil {
		t.Fatal(err)
	}
	ref := refCost(ct, model, 0, ct.descMask[0])
	if math.Abs(optCost-ref) > 1e-9 {
		t.Fatalf("opt %v != reference %v", optCost, ref)
	}
}

// TestExpectedCostRejectsHiddenNode checks that every policy's
// ExpectedCost answers a node that is not a component root with an
// error, as ChooseCut does, instead of evaluating or panicking.
func TestExpectedCostRejectsHiddenNode(t *testing.T) {
	f := newPaperFixture(t)
	if _, err := expandStatic(f.at, f.nodes["root"]); err != nil {
		t.Fatal(err)
	}
	hidden := f.nodes["phys"]
	if f.at.IsVisible(hidden) {
		t.Fatalf("node %d is visible after the root's static EXPAND", hidden)
	}
	for _, p := range []interface {
		Name() string
		ExpectedCost(*ActiveTree, navtree.NodeID) (float64, error)
	}{NewHeuristicReducedOpt(), &OptEdgeCutPolicy{Model: DefaultCostModel()}} {
		if c, err := p.ExpectedCost(f.at, hidden); err == nil {
			t.Errorf("%s: ExpectedCost of hidden node %d = %v, want an error", p.Name(), hidden, c)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if NewHeuristicReducedOpt().Name() != "Heuristic-ReducedOpt" {
		t.Fatal("heuristic name")
	}
	if (StaticAll{}).Name() != "Static" {
		t.Fatal("static name")
	}
	if (StaticTopK{K: 10}).Name() != "Static-Top10" {
		t.Fatal("topk name")
	}
	if (&OptEdgeCutPolicy{}).Name() != "Opt-EdgeCut" {
		t.Fatal("opt name")
	}
}

func TestLastReducedSize(t *testing.T) {
	at := bigActiveTree(t, 63, 200)
	h := NewHeuristicReducedOpt()
	n, err := h.LastReducedSize(at, at.Nav().Root())
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > h.K {
		t.Fatalf("reduced size = %d, want 2..%d", n, h.K)
	}
}

// TestHeuristicExpectedCostOracle checks the approximation behaviour: on
// components that fit in the reduced-tree budget the heuristic's expected
// cost equals the exact optimum; on larger components it stays within a
// small factor of it (the reduction both removes cut options and coarsens
// the probability estimates, so it bounds neither side exactly).
func TestHeuristicExpectedCostOracle(t *testing.T) {
	model := CostModel{ExpandCost: 1, Thi: 12, Tlo: 3, UseEntropy: true}
	opt := &OptEdgeCutPolicy{Model: model}

	// Small fixture: exact equality.
	f := newPaperFixture(t)
	h := &HeuristicReducedOpt{K: 20, Model: model}
	hc, err := h.ExpectedCost(f.at, f.nodes["root"])
	if err != nil {
		t.Fatal(err)
	}
	oc, err := opt.ExpectedCost(f.at, f.nodes["root"])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hc-oc) > 1e-9 {
		t.Fatalf("small component: heuristic %v != optimal %v", hc, oc)
	}

	// Larger components: heuristic(K=small) ≥ exact optimum. Detach a
	// subtree of 8–18 nodes as its own component and compare there.
	at := bigActiveTree(t, 91, 60)
	nav := at.Nav()
	root := navtree.NodeID(-1)
	for i := 1; i < nav.Len(); i++ {
		n := 0
		nav.PreOrder(i, func(navtree.NodeID) bool { n++; return true })
		if n >= 8 && n <= 18 {
			root = i
			break
		}
	}
	if root == -1 {
		t.Fatal("no mid-sized subtree in generated navigation tree")
	}
	if _, err := at.Expand(nav.Root(), []Edge{{Parent: nav.Parent(root), Child: root}}); err != nil {
		t.Fatal(err)
	}
	exact, err := opt.ExpectedCost(at, root)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := (&HeuristicReducedOpt{K: 4, Model: model}).ExpectedCost(at, root)
	if err != nil {
		t.Fatal(err)
	}
	if approx <= 0 || exact <= 0 {
		t.Fatalf("non-positive costs: approx %v exact %v", approx, exact)
	}
	if approx > 3*exact || exact > 3*approx {
		t.Fatalf("approximation off by more than 3x: approx %v exact %v", approx, exact)
	}
}
