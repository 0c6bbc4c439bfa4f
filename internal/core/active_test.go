package core

import (
	"context"
	"reflect"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

// paperFixture reproduces the component structure of the paper's Fig. 3:
//
//	MESH (root)
//	└── Biological Phenomena
//	    ├── Cell Physiology
//	    │   ├── Cell Death
//	    │   │   ├── Autophagy
//	    │   │   ├── Apoptosis
//	    │   │   └── Necrosis
//	    │   └── Cell Growth Processes
//	    │       ├── Cell Proliferation
//	    │       └── Cell Division
//	    └── Genetic Processes
//
// Every concept carries results so the navigation tree keeps all nodes.
type paperFixture struct {
	nav   *navtree.Tree
	at    *ActiveTree
	nodes map[string]navtree.NodeID
}

func newPaperFixture(t *testing.T) *paperFixture {
	t.Helper()
	b := hierarchy.NewBuilder("MESH")
	bio := b.Add(0, "Biological Phenomena")
	phys := b.Add(bio, "Cell Physiology")
	death := b.Add(phys, "Cell Death")
	auto := b.Add(death, "Autophagy")
	apo := b.Add(death, "Apoptosis")
	necr := b.Add(death, "Necrosis")
	growth := b.Add(phys, "Cell Growth Processes")
	prolif := b.Add(growth, "Cell Proliferation")
	div := b.Add(growth, "Cell Division")
	gen := b.Add(bio, "Genetic Processes")
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Twelve citations spread so that every concept has attached results
	// and there is meaningful duplication along paths.
	mk := func(id corpus.CitationID, cs ...hierarchy.ConceptID) corpus.Citation {
		return corpus.Citation{ID: id, Title: "t", Concepts: cs}
	}
	cits := []corpus.Citation{
		mk(1, death, auto), // deep-only annotation: leaves the upper count when cut
		mk(2, bio, phys, death, apo),
		mk(3, bio, phys, death, apo),
		mk(4, death, necr), // deep-only annotation
		mk(5, bio, phys, growth, prolif),
		mk(6, bio, phys, growth, prolif),
		mk(7, bio, phys, growth, div),
		mk(8, bio, phys, growth, prolif, div),
		mk(9, bio, gen),
		mk(10, bio, gen),
		mk(11, bio, phys, death, apo, growth, prolif),
		mk(12, bio, gen, phys),
	}
	counts := make([]int64, tree.Len())
	for i := range counts {
		counts[i] = 1000
	}
	// More specific concepts are globally rarer: boost selectivity of deep
	// concepts as MeSH statistics do.
	for _, c := range []hierarchy.ConceptID{auto, apo, necr, prolif, div} {
		counts[c] = 50
	}
	corp, err := corpus.New(tree, cits, counts)
	if err != nil {
		t.Fatal(err)
	}
	ids := corp.IDs()
	nav := navtree.Build(corp, ids)
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}

	nodes := make(map[string]navtree.NodeID)
	for label, cid := range map[string]hierarchy.ConceptID{
		"bio": bio, "phys": phys, "death": death, "auto": auto, "apo": apo,
		"necr": necr, "growth": growth, "prolif": prolif, "div": div, "gen": gen,
	} {
		n, ok := nav.NodeByConcept(cid)
		if !ok {
			t.Fatalf("concept %s missing from navigation tree", label)
		}
		nodes[label] = n
	}
	nodes["root"] = nav.Root()
	return &paperFixture{nav: nav, at: NewActiveTree(nav), nodes: nodes}
}

func (f *paperFixture) mustExpand(t *testing.T, root navtree.NodeID, cut []Edge) []navtree.NodeID {
	t.Helper()
	lower, err := f.at.Expand(root, cut)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if err := f.at.CheckInvariants(); err != nil {
		t.Fatalf("invariants after Expand: %v", err)
	}
	return lower
}

func (f *paperFixture) edge(t *testing.T, child string) Edge {
	t.Helper()
	c := f.nodes[child]
	return Edge{Parent: f.nav.Parent(c), Child: c}
}

func TestInitialActiveTree(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	if err := at.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	roots := at.VisibleRoots()
	if len(roots) != 1 || roots[0] != f.nav.Root() {
		t.Fatalf("VisibleRoots = %v", roots)
	}
	if got := len(at.Members(f.nav.Root())); got != f.nav.Len() {
		t.Fatalf("root component has %d members, want %d", got, f.nav.Len())
	}
	if got := at.Distinct(f.nav.Root()); got != 12 {
		t.Fatalf("Distinct(root) = %d, want 12", got)
	}
	// §IV: for the initial active tree pX = 1.
	if p := at.ExploreProb(f.nav.Root()); p < 0.999 || p > 1.001 {
		t.Fatalf("initial pX = %v, want 1", p)
	}
}

// TestExpandFig3 applies the exact EdgeCut of Fig. 3 — cutting
// (Cell Physiology → Cell Death) and (Cell Growth Processes → Cell
// Proliferation) on the Biological Phenomena component — and checks the
// component structure of Fig. 4b.
func TestExpandFig3(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at

	// First detach Biological Phenomena from the root so it owns a
	// component (the state before Fig. 3's cut).
	f.mustExpand(t, f.nodes["root"], []Edge{f.edge(t, "bio")})

	lower := f.mustExpand(t, f.nodes["bio"], []Edge{f.edge(t, "death"), f.edge(t, "prolif")})
	if len(lower) != 2 {
		t.Fatalf("lower roots = %v", lower)
	}

	// Fig. 4b: I(Cell Death) = {Cell Death, Autophagy, Apoptosis, Necrosis}.
	death := at.Members(f.nodes["death"])
	wantDeath := map[navtree.NodeID]bool{
		f.nodes["death"]: true, f.nodes["auto"]: true,
		f.nodes["apo"]: true, f.nodes["necr"]: true,
	}
	if len(death) != 4 {
		t.Fatalf("I(Cell Death) = %v", death)
	}
	for _, m := range death {
		if !wantDeath[m] {
			t.Fatalf("unexpected member %d in I(Cell Death)", m)
		}
	}

	// I(Cell Proliferation) = {Cell Proliferation} (Cell Division stays in
	// the upper component in our fixture since it is a sibling).
	prolif := at.Members(f.nodes["prolif"])
	if len(prolif) != 1 || prolif[0] != f.nodes["prolif"] {
		t.Fatalf("I(Cell Proliferation) = %v", prolif)
	}

	// Upper component keeps Biological Phenomena, Cell Physiology, Cell
	// Growth Processes, Genetic Processes, Cell Division.
	upper := at.Members(f.nodes["bio"])
	if len(upper) != 5 {
		t.Fatalf("upper component = %v", upper)
	}
	// The visible count of the upper component shrinks (217 → 166 in the
	// paper): it must now exclude citations only reachable via Cell Death
	// or Cell Proliferation… but duplicates attached higher remain.
	if got, all := at.Distinct(f.nodes["bio"]), 12; got >= all {
		t.Fatalf("upper distinct = %d, want < %d", got, all)
	}
}

func TestExpandRejectsInvalidCuts(t *testing.T) {
	f := newPaperFixture(t)
	root := f.nodes["root"]
	// reject requires Expand to fail and to leave the components, their
	// aggregates and the undo stack as they were.
	reject := func(what string, r navtree.NodeID, cut []Edge) {
		t.Helper()
		before, undo := f.at.Visualize(), len(f.at.undo)
		if _, err := f.at.Expand(r, cut); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if err := f.at.CheckInvariants(); err != nil {
			t.Fatalf("invariants after rejecting %s: %v", what, err)
		}
		if !reflect.DeepEqual(f.at.Visualize(), before) || len(f.at.undo) != undo {
			t.Fatalf("rejecting %s changed the active tree", what)
		}
	}

	// Two edges on one root-leaf path (Definition 3).
	reject("path-overlapping cut", root, []Edge{f.edge(t, "phys"), f.edge(t, "apo")})
	reject("non-tree edge", root, []Edge{{Parent: f.nodes["apo"], Child: f.nodes["prolif"]}})
	reject("empty cut", root, nil)
	reject("expand on non-root", f.nodes["phys"], []Edge{f.edge(t, "death")})
	// Edge outside the expanded component.
	f.mustExpand(t, root, []Edge{f.edge(t, "phys")})
	reject("edge inside a different component", root, []Edge{f.edge(t, "death")})
	// An EdgeCut is a set of edges: naming one twice would tally its
	// child twice.
	death := f.edge(t, "death")
	reject("repeated edge", f.nodes["phys"], []Edge{death, f.edge(t, "growth"), death})
}

// expandStatic applies the static-navigation cut to root's component: it
// cuts every edge from root to its children within the component,
// revealing all children.
func expandStatic(at *ActiveTree, root navtree.NodeID) ([]navtree.NodeID, error) {
	cut, err := StaticAll{}.ChooseCut(context.Background(), at, root)
	if err != nil {
		return nil, err
	}
	return at.Expand(root, cut)
}

func TestExpandAllMatchesStaticSemantics(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	// Static expansion of the root reveals its only child (bio).
	lower, err := expandStatic(at, f.nodes["root"])
	if err != nil {
		t.Fatal(err)
	}
	if len(lower) != 1 || lower[0] != f.nodes["bio"] {
		t.Fatalf("lower = %v", lower)
	}
	// Then bio reveals phys and gen.
	lower, err = expandStatic(at, f.nodes["bio"])
	if err != nil {
		t.Fatal(err)
	}
	if len(lower) != 2 {
		t.Fatalf("lower = %v", lower)
	}
	// Upper component is now the singleton {bio}: cannot expand further.
	if got := at.ComponentSize(f.nodes["bio"]); got != 1 {
		t.Fatalf("upper size = %d", got)
	}
	if _, err := expandStatic(at, f.nodes["bio"]); err == nil {
		t.Fatal("static EXPAND on singleton succeeded")
	}
	if err := at.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBacktrack(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	if at.CanBacktrack() {
		t.Fatal("fresh tree claims backtrackable")
	}
	if err := at.Backtrack(); err == nil {
		t.Fatal("backtrack on fresh tree succeeded")
	}
	before := len(at.VisibleRoots())
	f.mustExpand(t, f.nodes["root"], []Edge{f.edge(t, "bio")})
	f.mustExpand(t, f.nodes["bio"], []Edge{f.edge(t, "death")})
	if got := len(at.VisibleRoots()); got != 3 {
		t.Fatalf("roots after 2 expands = %d", got)
	}
	if err := at.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if got := len(at.VisibleRoots()); got != 2 {
		t.Fatalf("roots after 1 backtrack = %d", got)
	}
	if err := at.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if got := len(at.VisibleRoots()); got != before {
		t.Fatalf("roots after full backtrack = %d, want %d", got, before)
	}
	if err := at.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctUnder(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	root, growth, phys := f.nodes["root"], f.nodes["growth"], f.nodes["phys"]
	// Under growth: citations 5,6,7,8,11 → 5 distinct.
	if got := at.DistinctUnder(root, growth); got != 5 {
		t.Fatalf("DistinctUnder(growth) = %d, want 5", got)
	}
	// Cutting prolif out leaves growth and div under growth. div's
	// citations 7 and 8 are attached to growth too, so the count stays 5.
	f.mustExpand(t, root, []Edge{f.edge(t, "prolif")})
	if got, want := at.DistinctUnder(root, growth), oracleDistinctUnder(at, root, growth); got != want || got != 5 {
		t.Fatalf("DistinctUnder(growth) after cut = %d, oracle %d, want 5", got, want)
	}
	// A node of another component counts nothing toward root's: prolif
	// roots its own, and once bio is cut, phys and everything under it lie
	// in bio's, as root lies outside bio's.
	f.mustExpand(t, root, []Edge{f.edge(t, "bio")})
	for _, c := range []struct{ root, n navtree.NodeID }{
		{root, f.nodes["prolif"]}, {root, phys}, {root, growth}, {f.nodes["bio"], root},
	} {
		if got := at.DistinctUnder(c.root, c.n); got != 0 {
			t.Fatalf("DistinctUnder(%d, %d) across components = %d, want 0", c.root, c.n, got)
		}
	}
	// BACKTRACK merges phys back into root's component: citations 1–8, 11
	// and 12 lie under it once prolif's subtree is left out.
	if err := at.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if got, want := at.DistinctUnder(root, phys), oracleDistinctUnder(at, root, phys); got != want || got != 10 {
		t.Fatalf("DistinctUnder(phys) after BACKTRACK = %d, oracle %d, want 10", got, want)
	}
}

func TestVisualize(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	f.mustExpand(t, f.nodes["root"], []Edge{f.edge(t, "bio")})
	f.mustExpand(t, f.nodes["bio"], []Edge{f.edge(t, "death"), f.edge(t, "prolif")})

	vis := at.Visualize()
	if len(vis) != 4 { // root, bio, death, prolif
		t.Fatalf("visible nodes = %d", len(vis))
	}
	rootV := vis[f.nodes["root"]]
	if rootV.Parent != -1 || len(rootV.Children) != 1 {
		t.Fatalf("root vis = %+v", rootV)
	}
	bioV := vis[f.nodes["bio"]]
	if bioV.Parent != f.nodes["root"] {
		t.Fatalf("bio parent = %d", bioV.Parent)
	}
	if len(bioV.Children) != 2 {
		t.Fatalf("bio children = %v", bioV.Children)
	}
	if !bioV.Expandable {
		t.Fatal("bio should remain expandable (multi-node component)")
	}
	deathV := vis[f.nodes["death"]]
	if deathV.Count != at.Distinct(f.nodes["death"]) {
		t.Fatalf("death count = %d", deathV.Count)
	}
	prolifV := vis[f.nodes["prolif"]]
	if prolifV.Expandable {
		t.Fatal("singleton component marked expandable")
	}
	// Children ranked by explore probability descending.
	kids := bioV.Children
	if vis[kids[0]].Explore < vis[kids[1]].Explore {
		t.Fatalf("children not ranked: %v vs %v", vis[kids[0]].Explore, vis[kids[1]].Explore)
	}
}

func TestExploreProbPartitions(t *testing.T) {
	f := newPaperFixture(t)
	at := f.at
	f.mustExpand(t, f.nodes["root"], []Edge{f.edge(t, "phys"), f.edge(t, "gen")})
	// pX over all components must sum to 1 (scores partition the tree).
	sum := 0.0
	for _, r := range at.VisibleRoots() {
		sum += at.ExploreProb(r)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("Σ pX = %v, want 1", sum)
	}
}

// TestAggregatesArePointerFree checks that no per-node array of a tree's
// aggregates holds a pointer, so the garbage collector skips them for
// every cached tree. The cut memo is not a per-node array.
func TestAggregatesArePointerFree(t *testing.T) {
	typ := reflect.TypeOf((*treeAggregates)(nil)).Elem()
	columns := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		columns++
		if !pointerFree(f.Type.Elem()) {
			t.Errorf("treeAggregates.%s is %s: its elements hold pointers", f.Name, f.Type)
		}
	}
	if columns == 0 {
		t.Fatal("treeAggregates has no slice fields")
	}
}

// pointerFree reports whether values of typ hold no pointer, slice,
// string, map, chan, func or interface, at any depth.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return false
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
	}
	return true
}
