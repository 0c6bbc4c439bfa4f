package hierarchy

import (
	"strings"
	"testing"
)

// smallTree builds the fragment of Fig. 3 from the paper:
//
//	MESH
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
func smallTree(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder("MESH")
	bio := b.Add(0, "Biological Phenomena")
	phys := b.Add(bio, "Cell Physiology")
	death := b.Add(phys, "Cell Death")
	b.Add(death, "Autophagy")
	b.Add(death, "Apoptosis")
	b.Add(death, "Necrosis")
	growth := b.Add(phys, "Cell Growth Processes")
	b.Add(growth, "Cell Proliferation")
	b.Add(growth, "Cell Division")
	b.Add(bio, "Genetic Processes")
	tree, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func mustID(t *testing.T, tr *Tree, label string) ConceptID {
	t.Helper()
	id, ok := tr.ByLabel(label)
	if !ok {
		t.Fatalf("label %q not found", label)
	}
	return id
}

func TestBuilderBasics(t *testing.T) {
	tr := smallTree(t)
	if tr.Len() != 11 {
		t.Fatalf("Len = %d, want 11", tr.Len())
	}
	if tr.Height() != 4 {
		t.Fatalf("Height = %d, want 4", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.Label(tr.Root()); got != "MESH" {
		t.Fatalf("root label = %q", got)
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	b := NewBuilder("root")
	b.Add(0, "x")
	b.Add(0, "x")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted duplicate labels")
	}
}

func TestBuildTwiceRejected(t *testing.T) {
	b := NewBuilder("root")
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build did not fail")
	}
}

func TestAddAfterBuildPanics(t *testing.T) {
	b := NewBuilder("root")
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Build did not panic")
		}
	}()
	b.Add(0, "x")
}

func TestTreeIDs(t *testing.T) {
	tr := smallTree(t)
	cases := map[string]string{
		"MESH":                  "",
		"Biological Phenomena":  "A01",
		"Cell Physiology":       "A01.001",
		"Cell Death":            "A01.001.001",
		"Apoptosis":             "A01.001.001.002",
		"Cell Growth Processes": "A01.001.002",
		"Genetic Processes":     "A01.002",
	}
	for label, want := range cases {
		id := mustID(t, tr, label)
		if got := tr.Node(id).TreeID; got != want {
			t.Errorf("%s: TreeID = %q, want %q", label, got, want)
		}
	}
}

func TestIsAncestorAndPath(t *testing.T) {
	tr := smallTree(t)
	apo := mustID(t, tr, "Apoptosis")
	phys := mustID(t, tr, "Cell Physiology")
	gen := mustID(t, tr, "Genetic Processes")

	if !tr.IsAncestor(tr.Root(), apo) {
		t.Error("root should be ancestor of Apoptosis")
	}
	if !tr.IsAncestor(phys, apo) {
		t.Error("Cell Physiology should be ancestor of Apoptosis")
	}
	if tr.IsAncestor(apo, phys) {
		t.Error("Apoptosis must not be ancestor of Cell Physiology")
	}
	if tr.IsAncestor(apo, apo) {
		t.Error("a node is not its own proper ancestor")
	}
	if tr.IsAncestor(gen, apo) {
		t.Error("Genetic Processes is not an ancestor of Apoptosis")
	}

	path := tr.Path(apo)
	var labels []string
	for _, id := range path {
		labels = append(labels, tr.Label(id))
	}
	want := "MESH/Biological Phenomena/Cell Physiology/Cell Death/Apoptosis"
	if got := strings.Join(labels, "/"); got != want {
		t.Errorf("Path = %s, want %s", got, want)
	}
}

func TestWalksAndSubtreeSize(t *testing.T) {
	tr := smallTree(t)
	phys := mustID(t, tr, "Cell Physiology")
	size := func(id ConceptID) int {
		n := 0
		tr.PreOrder(id, func(ConceptID) bool { n++; return true })
		return n
	}
	if n := size(phys); n != 8 {
		t.Errorf("subtree size of Cell Physiology = %d, want 8", n)
	}
	if n := size(tr.Root()); n != tr.Len() {
		t.Errorf("subtree size of the root = %d, want %d", n, tr.Len())
	}

	// Pre-order with pruning: skipping Cell Death's subtree.
	var visited []string
	tr.PreOrder(phys, func(id ConceptID) bool {
		visited = append(visited, tr.Label(id))
		return tr.Label(id) != "Cell Death"
	})
	want := []string{"Cell Physiology", "Cell Death", "Cell Growth Processes", "Cell Proliferation", "Cell Division"}
	if len(visited) != len(want) {
		t.Fatalf("pruned pre-order = %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("pruned pre-order = %v, want %v", visited, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tr := smallTree(t)
	s := tr.ComputeStats()
	if s.Nodes != 11 || s.Height != 4 || s.TopLevel != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Leaves != 6 {
		t.Errorf("Leaves = %d, want 6", s.Leaves)
	}
	if s.MaxFanout != 3 {
		t.Errorf("MaxFanout = %d, want 3", s.MaxFanout)
	}
	wantWidths := []int{1, 1, 2, 2, 5}
	for d, w := range wantWidths {
		if s.LevelWidths[d] != w {
			t.Errorf("LevelWidths[%d] = %d, want %d", d, s.LevelWidths[d], w)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr := smallTree(t)
	tr.nodes[3].Parent = 9 // sever a link
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted tree")
	}
}
