package check_test

import (
	"context"
	"strings"
	"testing"

	"bionav/internal/check"
	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

func buildActive(t *testing.T, seed uint64) (*navtree.Tree, *core.ActiveTree) {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: seed, Nodes: 1200, TopLevel: 10, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: seed + 7, Citations: 120, MeanConcepts: 25,
		FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return nav, core.NewActiveTree(nav)
}

// grandchildEdge finds a navigation-tree edge whose child has a child of
// its own, so ancestor-pair cuts can be constructed.
func grandchildEdge(t *testing.T, nav *navtree.Tree) (core.Edge, core.Edge) {
	t.Helper()
	for _, c := range nav.Children(nav.Root()) {
		for _, gc := range nav.Children(c) {
			return core.Edge{Parent: nav.Root(), Child: c}, core.Edge{Parent: c, Child: gc}
		}
	}
	t.Fatal("navigation tree has no grandchildren")
	return core.Edge{}, core.Edge{}
}

func TestValidateEdgeCutAcceptsPolicyCuts(t *testing.T) {
	nav, at := buildActive(t, 41)
	for _, policy := range []core.Policy{core.NewHeuristicReducedOpt(), core.StaticAll{}, core.StaticTopK{K: 3}} {
		cut, err := policy.ChooseCut(context.Background(), at, nav.Root())
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if err := at.CheckCut(nav.Root(), cut); err != nil {
			t.Errorf("%s produced an invalid cut: %v", policy.Name(), err)
		}
	}
}

func TestValidateEdgeCutRejections(t *testing.T) {
	nav, at := buildActive(t, 42)
	parentEdge, childEdge := grandchildEdge(t, nav)
	cases := []struct {
		name string
		root navtree.NodeID
		cut  []core.Edge
		want string
	}{
		{"empty cut", nav.Root(), nil, "empty EdgeCut"},
		{"root not visible", parentEdge.Child, []core.Edge{childEdge}, "not a component root"},
		{"child out of range", nav.Root(), []core.Edge{{Parent: 0, Child: navtree.NodeID(nav.Len())}}, "not a navigation-tree edge"},
		{"not a tree edge", nav.Root(), []core.Edge{{Parent: childEdge.Child, Child: parentEdge.Child}}, "not a navigation-tree edge"},
		{"duplicate edge", nav.Root(), []core.Edge{parentEdge, parentEdge}, "twice"},
		{"ancestor pair", nav.Root(), []core.Edge{parentEdge, childEdge}, "is an ancestor of"},
	}
	for _, tc := range cases {
		err := at.CheckCut(tc.root, tc.cut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateEdgeCutOutsideComponent(t *testing.T) {
	nav, at := buildActive(t, 43)
	parentEdge, childEdge := grandchildEdge(t, nav)
	// Detach the child's subtree; its internal edge is then outside the
	// root component.
	if _, err := at.Expand(nav.Root(), []core.Edge{parentEdge}); err != nil {
		t.Fatal(err)
	}
	err := at.CheckCut(nav.Root(), []core.Edge{childEdge})
	if err == nil || !strings.Contains(err.Error(), "not inside component") {
		t.Errorf("got %v, want error containing %q", err, "not inside component")
	}
	// But it is a valid cut of the detached lower component.
	if err := at.CheckCut(parentEdge.Child, []core.Edge{childEdge}); err != nil {
		t.Errorf("cut inside lower component rejected: %v", err)
	}
}

func TestValidateActiveTree(t *testing.T) {
	nav, at := buildActive(t, 44)
	if err := at.CheckInvariants(); err != nil {
		t.Fatalf("fresh active tree invalid: %v", err)
	}
	cut, err := core.StaticAll{}.ChooseCut(context.Background(), at, nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := at.Expand(nav.Root(), cut); err != nil {
		t.Fatal(err)
	}
	if err := at.CheckInvariants(); err != nil {
		t.Fatalf("active tree invalid after a static EXPAND: %v", err)
	}
}

func TestValidateModel(t *testing.T) {
	if err := check.ValidateModel(core.DefaultCostModel()); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []core.CostModel{
		{ExpandCost: 0, Thi: 50, Tlo: 10},
		{ExpandCost: -1, Thi: 50, Tlo: 10},
		{ExpandCost: 1, Thi: 5, Tlo: 10},
		{ExpandCost: 1, Thi: 50, Tlo: -1},
	}
	for _, m := range bad {
		if check.ValidateModel(m) == nil {
			t.Errorf("model %+v accepted; want error", m)
		}
	}
}
