package navtree

import (
	"reflect"
	"testing"
	"testing/quick"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// fixture builds a hierarchy shaped like the paper's Fig. 3 plus an extra
// branch that stays empty, and a corpus with hand-placed annotations.
//
// Hierarchy:
//
//	MESH
//	├── Biological Phenomena
//	│   └── Cell Physiology
//	│       ├── Cell Death
//	│       │   └── Apoptosis
//	│       └── Cell Growth Processes
//	│           └── Cell Proliferation
//	└── Chemicals            (never annotated)
//	    └── Enzymes          (never annotated)
type fixture struct {
	tree *hierarchy.Tree
	corp *corpus.Corpus
	ids  map[string]hierarchy.ConceptID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	b := hierarchy.NewBuilder("MESH")
	bio := b.Add(0, "Biological Phenomena")
	phys := b.Add(bio, "Cell Physiology")
	death := b.Add(phys, "Cell Death")
	apo := b.Add(death, "Apoptosis")
	growth := b.Add(phys, "Cell Growth Processes")
	prolif := b.Add(growth, "Cell Proliferation")
	chem := b.Add(0, "Chemicals")
	enz := b.Add(chem, "Enzymes")
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Citations:
	//  1 → Apoptosis path (bio, phys, death, apo)
	//  2 → Apoptosis path AND Cell Proliferation path (duplicate-heavy)
	//  3 → Cell Proliferation path only
	//  4 → Cell Physiology only (internal annotation)
	cits := []corpus.Citation{
		{ID: 1, Title: "one", Concepts: []hierarchy.ConceptID{bio, phys, death, apo}},
		{ID: 2, Title: "two", Concepts: []hierarchy.ConceptID{bio, phys, death, apo, growth, prolif}},
		{ID: 3, Title: "three", Concepts: []hierarchy.ConceptID{bio, phys, growth, prolif}},
		{ID: 4, Title: "four", Concepts: []hierarchy.ConceptID{bio, phys}},
	}
	counts := make([]int64, tree.Len())
	for i := range counts {
		counts[i] = 100
	}
	corp, err := corpus.New(tree, cits, counts)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		tree: tree,
		corp: corp,
		ids: map[string]hierarchy.ConceptID{
			"bio": bio, "phys": phys, "death": death, "apo": apo,
			"growth": growth, "prolif": prolif, "chem": chem, "enz": enz,
		},
	}
}

func (f *fixture) build(t *testing.T, results ...corpus.CitationID) *Tree {
	t.Helper()
	nt := Build(f.corp, results)
	if err := nt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return nt
}

func TestBuildKeepsOnlyAnnotatedConcepts(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t, 1, 2, 3, 4)
	// 6 annotated concepts + root; Chemicals/Enzymes elided.
	if nt.Len() != 7 {
		t.Fatalf("Len = %d, want 7", nt.Len())
	}
	if _, ok := nt.NodeByConcept(f.ids["chem"]); ok {
		t.Fatal("empty concept Chemicals kept")
	}
	if nt.DistinctTotal() != 4 {
		t.Fatalf("DistinctTotal = %d", nt.DistinctTotal())
	}
}

func TestMaximumEmbeddingSkipsEmptyAncestors(t *testing.T) {
	f := newFixture(t)
	// Only citation 1, and only its deep concepts: ancestors bio/phys get
	// results too (they're annotated), so instead query with a citation set
	// that annotates only part of the path: citation 4 (bio, phys).
	nt := f.build(t, 4)
	if nt.Len() != 3 { // root + bio + phys
		t.Fatalf("Len = %d, want 3", nt.Len())
	}
	physNode, ok := nt.NodeByConcept(f.ids["phys"])
	if !ok {
		t.Fatal("phys missing")
	}
	bioNode, _ := nt.NodeByConcept(f.ids["bio"])
	if nt.Parent(physNode) != bioNode {
		t.Fatalf("phys parent = %d, want bio %d", nt.Parent(physNode), bioNode)
	}
}

func TestEmbeddingReconnectsAcrossElidedNodes(t *testing.T) {
	// Build a corpus where a deep concept is annotated but its hierarchy
	// parent is not: the navigation tree must reconnect it to the nearest
	// annotated ancestor.
	b := hierarchy.NewBuilder("root")
	a := b.Add(0, "a")
	mid := b.Add(a, "mid")
	deep := b.Add(mid, "deep")
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cits := []corpus.Citation{
		// Annotate a and deep but NOT mid.
		{ID: 9, Title: "t", Concepts: []hierarchy.ConceptID{a, deep}},
	}
	corp, err := corpus.New(tree, cits, make([]int64, tree.Len()))
	if err != nil {
		t.Fatal(err)
	}
	nt := Build(corp, []corpus.CitationID{9})
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
	if nt.Len() != 3 { // root, a, deep
		t.Fatalf("Len = %d, want 3", nt.Len())
	}
	deepNode, ok := nt.NodeByConcept(deep)
	if !ok {
		t.Fatal("deep missing")
	}
	aNode, _ := nt.NodeByConcept(a)
	if nt.Parent(deepNode) != aNode {
		t.Fatalf("deep's parent = %d, want a = %d", nt.Parent(deepNode), aNode)
	}
	if nt.Depth(deepNode) != 2 {
		t.Fatalf("deep depth = %d, want 2 (path compressed)", nt.Depth(deepNode))
	}
}

func TestResultsAttachment(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t, 1, 2, 3)
	apoNode, _ := nt.NodeByConcept(f.ids["apo"])
	if got := nt.NumResults(apoNode); got != 2 { // citations 1 and 2
		t.Fatalf("res(apo) = %d, want 2", got)
	}
	prolifNode, _ := nt.NodeByConcept(f.ids["prolif"])
	if got := nt.NumResults(prolifNode); got != 2 { // citations 2 and 3
		t.Fatalf("res(prolif) = %d, want 2", got)
	}
}

func TestDuplicateAndUnknownResultsIgnored(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t, 1, 1, 99999, 2)
	if nt.DistinctTotal() != 2 {
		t.Fatalf("DistinctTotal = %d, want 2", nt.DistinctTotal())
	}
}

func TestStatsCountDuplicates(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t, 1, 2, 3, 4)
	s := nt.ComputeStats()
	if s.Size != 6 {
		t.Fatalf("Size = %d, want 6", s.Size)
	}
	// Total attached: bio(4)+phys(4)+death(2)+apo(2)+growth(2)+prolif(2)=16.
	if s.TotalAttached != 16 {
		t.Fatalf("TotalAttached = %d, want 16", s.TotalAttached)
	}
	if s.DistinctTotal != 4 {
		t.Fatalf("DistinctTotal = %d", s.DistinctTotal)
	}
	if s.DuplicateRatio != 4.0 {
		t.Fatalf("DuplicateRatio = %v, want 4", s.DuplicateRatio)
	}
	if s.Height != 4 {
		t.Fatalf("Height = %d, want 4", s.Height)
	}
	if s.MaxLevelWidth != 2 {
		t.Fatalf("MaxLevelWidth = %d, want 2", s.MaxLevelWidth)
	}
}

func TestResultIndexDense(t *testing.T) {
	f := newFixture(t)
	// Result order numbers the distinct known citations; the repeat of 3
	// and the unknown 999 take no index.
	nt := f.build(t, 3, 1, 999, 3, 2)
	want := map[corpus.CitationID]int32{3: 0, 1: 1, 2: 2}
	seen := make(map[int32]bool)
	for id := NodeID(0); id < nt.Len(); id++ {
		idxs := nt.ResultIndexes(id)
		if len(idxs) != nt.NumResults(id) {
			t.Fatalf("node %d: %d results but %d indexes", id, nt.NumResults(id), len(idxs))
		}
		for j, cit := range nt.Results(id) {
			if w, ok := want[cit]; !ok || idxs[j] != w {
				t.Fatalf("node %d: citation %d has index %d, want %d (known %v)", id, cit, idxs[j], w, ok)
			}
			seen[idxs[j]] = true
		}
	}
	if len(seen) != nt.DistinctTotal() || nt.DistinctTotal() != 3 {
		t.Fatalf("%d indexes in use, DistinctTotal = %d, want 3 and 3", len(seen), nt.DistinctTotal())
	}
}

func TestIsAncestorAndSubtree(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t, 1, 2, 3, 4)
	physNode, _ := nt.NodeByConcept(f.ids["phys"])
	apoNode, _ := nt.NodeByConcept(f.ids["apo"])
	if !nt.IsAncestor(physNode, apoNode) {
		t.Fatal("phys should be nav-ancestor of apo")
	}
	if nt.IsAncestor(apoNode, physNode) || nt.IsAncestor(apoNode, apoNode) {
		t.Fatal("IsAncestor reflexive/inverted")
	}
	sub := nt.Subtree(physNode)
	if len(sub) != 5 { // phys, death, apo, growth, prolif
		t.Fatalf("Subtree = %v", sub)
	}
}

// Property test: for random subsets of a generated corpus, the navigation
// tree invariants hold and every node's result count is bounded by the
// query-result size.
func TestBuildPropertyOnGeneratedCorpus(t *testing.T) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 31, Nodes: 500, TopLevel: 8, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{Seed: 6, Citations: 150, MeanConcepts: 20, FirstID: 1000, YearLo: 2000, YearHi: 2008})
	all := corp.IDs()
	err := quick.Check(func(mask []bool) bool {
		var results []corpus.CitationID
		for i, keep := range mask {
			if keep && i < len(all) {
				results = append(results, all[i])
			}
		}
		nt := Build(corp, results)
		if nt.Validate() != nil {
			return false
		}
		if nt.DistinctTotal() != len(results) {
			return false
		}
		for i := 1; i < nt.Len(); i++ {
			if nt.NumResults(i) > len(results) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyResultTree(t *testing.T) {
	f := newFixture(t)
	nt := f.build(t)
	if nt.Len() != 1 || nt.DistinctTotal() != 0 {
		t.Fatalf("empty query: Len=%d Distinct=%d", nt.Len(), nt.DistinctTotal())
	}
	s := nt.ComputeStats()
	if s.Size != 0 || s.DuplicateRatio != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTreeIsPointerFree checks that no per-node array of a Tree holds a
// pointer: the garbage collector then skips a cached tree's columns
// instead of scanning a slice header, or two, per node. Fields that are
// not slices, such as the corpus and the aggregates, are out of scope.
func TestTreeIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf((*Tree)(nil)).Elem()
	columns := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		columns++
		if !pointerFree(f.Type.Elem()) {
			t.Errorf("Tree.%s is %s: its elements hold pointers", f.Name, f.Type)
		}
	}
	if columns == 0 {
		t.Fatal("Tree has no slice fields")
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
