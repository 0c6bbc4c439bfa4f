// Package hierarchy implements the concept hierarchy of BioNav (Definition 1
// of the paper): a labeled tree of concepts, each with a unique identifier
// and a MeSH-style positional tree identifier. It also provides a synthetic
// generator that reproduces the shape statistics of the 2008 MeSH hierarchy
// the paper navigates (~48,000 concepts, 16 top-level categories, bushy upper
// levels).
package hierarchy

import (
	"fmt"
	"strconv"
)

// ConceptID identifies a concept node within a Tree. IDs are dense indexes
// assigned in insertion order; the root is always ID 0.
type ConceptID int32

// None is the sentinel ConceptID used for "no node" (e.g. the root's parent).
const None ConceptID = -1

// Node is a single concept in the hierarchy. According to MeSH semantics the
// label of a child is more specific than the label of its parent.
type Node struct {
	ID       ConceptID
	Label    string
	TreeID   string // positional identifier, e.g. "C04.588.033"; "" for the root
	Parent   ConceptID
	Children []ConceptID
	Depth    int // root is depth 0
}

// Tree is a concept hierarchy rooted at node 0. Trees are immutable once
// built and safe for concurrent readers.
type Tree struct {
	nodes   []Node
	byLabel map[string]ConceptID
	height  int
}

// Root returns the ID of the root concept.
func (t *Tree) Root() ConceptID { return 0 }

// Len reports the number of concepts, including the root.
func (t *Tree) Len() int { return len(t.nodes) }

// Height reports the maximum depth of any node (root = 0).
func (t *Tree) Height() int { return t.height }

// Node returns the node with the given ID. It panics if id is out of range,
// mirroring slice indexing semantics.
func (t *Tree) Node(id ConceptID) *Node { return &t.nodes[id] }

// Label returns the label of id.
func (t *Tree) Label(id ConceptID) string { return t.nodes[id].Label }

// Parent returns the parent of id, or None for the root.
func (t *Tree) Parent(id ConceptID) ConceptID { return t.nodes[id].Parent }

// Children returns the children of id. The returned slice must not be
// modified.
func (t *Tree) Children(id ConceptID) []ConceptID { return t.nodes[id].Children }

// ByLabel resolves a label to a concept. Labels are unique within a tree.
func (t *Tree) ByLabel(label string) (ConceptID, bool) {
	id, ok := t.byLabel[label]
	return id, ok
}

// IsAncestor reports whether a is a proper ancestor of b.
func (t *Tree) IsAncestor(a, b ConceptID) bool {
	if a == b {
		return false
	}
	for cur := t.nodes[b].Parent; cur != None; cur = t.nodes[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// Path returns the node IDs from the root to id, inclusive.
func (t *Tree) Path(id ConceptID) []ConceptID {
	var rev []ConceptID
	for cur := id; cur != None; cur = t.nodes[cur].Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PreOrder visits the subtree rooted at id in depth-first pre-order
// (children in insertion order). If visit returns false the walk skips the
// node's descendants but continues with its siblings.
func (t *Tree) PreOrder(id ConceptID, visit func(ConceptID) bool) {
	if !visit(id) {
		return
	}
	for _, c := range t.nodes[id].Children {
		t.PreOrder(c, visit)
	}
}

// Stats summarizes the shape of a hierarchy; the generator's tests compare
// these against MeSH's published characteristics.
type Stats struct {
	Nodes        int
	Height       int
	MaxFanout    int
	AvgFanout    float64 // over internal nodes
	LevelWidths  []int   // LevelWidths[d] = number of nodes at depth d
	TopLevel     int     // children of the root
	InternalNode int
	Leaves       int
}

// ComputeStats walks the tree once and returns its shape statistics.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Nodes: len(t.nodes), Height: t.height, TopLevel: len(t.nodes[0].Children)}
	s.LevelWidths = make([]int, t.height+1)
	totalChildren := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		s.LevelWidths[n.Depth]++
		if len(n.Children) == 0 {
			s.Leaves++
			continue
		}
		s.InternalNode++
		totalChildren += len(n.Children)
		if len(n.Children) > s.MaxFanout {
			s.MaxFanout = len(n.Children)
		}
	}
	if s.InternalNode > 0 {
		s.AvgFanout = float64(totalChildren) / float64(s.InternalNode)
	}
	return s
}

// Builder incrementally constructs a Tree. Builders are single-use: Build
// finalizes the tree and the builder must not be reused afterwards.
type Builder struct {
	nodes []Node
	built bool
}

// NewBuilder returns a builder whose tree is rooted at a concept with the
// given label.
func NewBuilder(rootLabel string) *Builder {
	return &Builder{nodes: []Node{{ID: 0, Label: rootLabel, Parent: None}}}
}

// Len reports the number of nodes added so far, including the root.
func (b *Builder) Len() int { return len(b.nodes) }

// Add appends a new concept under parent and returns its ID.
// It panics if parent does not exist or the builder is already built.
func (b *Builder) Add(parent ConceptID, label string) ConceptID {
	if b.built {
		panic("hierarchy: Add after Build")
	}
	if parent < 0 || int(parent) >= len(b.nodes) {
		panic(fmt.Sprintf("hierarchy: Add under unknown parent %d", parent))
	}
	id := ConceptID(len(b.nodes))
	b.nodes = append(b.nodes, Node{
		ID:     id,
		Label:  label,
		Parent: parent,
		Depth:  b.nodes[parent].Depth + 1,
	})
	return id
}

// Build finalizes the tree: it links every node to its children, assigns
// MeSH-style tree identifiers, verifies label uniqueness, and indexes the
// labels. Build returns an error if two concepts share a label.
func (b *Builder) Build() (*Tree, error) {
	if b.built {
		return nil, fmt.Errorf("hierarchy: Build called twice")
	}
	b.built = true
	t := &Tree{
		nodes:   b.nodes,
		byLabel: make(map[string]ConceptID, len(b.nodes)),
	}
	linkChildren(t.nodes)
	assignTreeIDs(t.nodes)
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.Depth > t.height {
			t.height = n.Depth
		}
		if prev, dup := t.byLabel[n.Label]; dup {
			return nil, fmt.Errorf("hierarchy: duplicate label %q (nodes %d and %d)", n.Label, prev, n.ID)
		}
		t.byLabel[n.Label] = n.ID
	}
	return t, nil
}

// linkChildren fills every node's Children as a window of one flat array:
// each parent gets a zero-length window of its exact child count, and the
// children are appended in ID order, the order Add created them in. A
// leaf's Children stays nil.
func linkChildren(nodes []Node) {
	count := make([]int32, len(nodes))
	for i := 1; i < len(nodes); i++ {
		count[nodes[i].Parent]++
	}
	flat, off := make([]ConceptID, len(nodes)-1), 0
	for p, n := range count {
		if n > 0 {
			nodes[p].Children = flat[off : off : off+int(n)]
			off += int(n)
		}
	}
	for i := 1; i < len(nodes); i++ {
		p := nodes[i].Parent
		nodes[p].Children = append(nodes[p].Children, ConceptID(i))
	}
}

// assignTreeIDs gives each node a MeSH-style positional identifier: the 16
// top-level categories get letter-prefixed identifiers (A01, B02, ...), and
// each deeper level appends a dot-separated three-digit ordinal. Ordinals
// are zero-padded as %02d and %03d pad them: wider ones print in full. A
// parent precedes its children in ID order, so one pass in that order
// finds every parent's identifier already written.
func assignTreeIDs(nodes []Node) {
	var buf []byte
	for p := range nodes {
		for i, c := range nodes[p].Children {
			if p == 0 {
				buf = append(buf[:0], byte('A'+i%26))
			} else {
				buf = append(append(buf[:0], nodes[p].TreeID...), '.')
				if i+1 < 100 {
					buf = append(buf, '0')
				}
			}
			if i+1 < 10 {
				buf = append(buf, '0')
			}
			buf = strconv.AppendInt(buf, int64(i+1), 10)
			nodes[c].TreeID = string(buf)
		}
	}
}

// Validate checks the structural invariants of the tree: parent/child links
// are mutually consistent, depths increase by one along edges, the node IDs
// are dense, and every node is reachable from the root. LoadDataset in
// package store runs it on every hierarchy it reads from disk.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("hierarchy: empty tree")
	}
	if t.nodes[0].Parent != None {
		return fmt.Errorf("hierarchy: root has parent %d", t.nodes[0].Parent)
	}
	reached := 0
	t.PreOrder(0, func(ConceptID) bool { reached++; return true })
	if reached != len(t.nodes) {
		return fmt.Errorf("hierarchy: %d of %d nodes reachable from root", reached, len(t.nodes))
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.ID != ConceptID(i) {
			return fmt.Errorf("hierarchy: node at index %d has ID %d", i, n.ID)
		}
		for _, c := range n.Children {
			if c <= n.ID || int(c) >= len(t.nodes) {
				return fmt.Errorf("hierarchy: node %d has out-of-range child %d", n.ID, c)
			}
			child := &t.nodes[c]
			if child.Parent != n.ID {
				return fmt.Errorf("hierarchy: child %d of %d has parent %d", c, n.ID, child.Parent)
			}
			if child.Depth != n.Depth+1 {
				return fmt.Errorf("hierarchy: child %d depth %d under parent depth %d", c, child.Depth, n.Depth)
			}
		}
	}
	return nil
}

// Relabel returns a copy of t with the given nodes renamed. Structure and
// tree identifiers are unchanged. It fails if a new label collides with an
// existing one. The workload generator uses this to give planted target
// concepts the labels of the paper's Table I.
func Relabel(t *Tree, labels map[ConceptID]string) (*Tree, error) {
	pick := func(id ConceptID) string {
		if l, ok := labels[id]; ok {
			return l
		}
		return t.nodes[id].Label
	}
	b := NewBuilder(pick(0))
	for i := 1; i < len(t.nodes); i++ {
		b.Add(t.nodes[i].Parent, pick(ConceptID(i)))
	}
	return b.Build()
}
