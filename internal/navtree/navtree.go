// Package navtree builds BioNav's navigation tree (Definition 2 of the
// paper): the maximum embedding of the initial navigation tree — the MeSH
// concept hierarchy with each query-result citation attached to its
// associated concepts — such that no node except the root has an empty
// results list. Ancestor/descendant relationships of the hierarchy are
// preserved.
package navtree

import (
	"fmt"
	"sort"
	"sync"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// NodeID indexes a node within a navigation Tree. The root is always 0.
type NodeID = int

// Node is one concept of the navigation tree with its attached results.
type Node struct {
	Concept  hierarchy.ConceptID
	Parent   NodeID // -1 for the root
	Children []NodeID
	Results  []corpus.CitationID // res(n): result citations attached to the concept
	Depth    int                 // depth within the navigation tree (root = 0)
}

// Tree is an immutable navigation tree for one query result.
type Tree struct {
	corp        *corpus.Corpus
	nodes       []Node // ascending by Concept; parents precede children
	distinct    int    // distinct citations across the whole tree
	attachments int    // citations attached across all nodes, with duplicates
	resultIdx   map[corpus.CitationID]int
	nodeIdxs    [][]int32 // per node: Results mapped through resultIdx

	aggOnce sync.Once
	agg     any // see Aggregates
}

// Build constructs the navigation tree for the given query result over
// corp's hierarchy: each result citation is attached to every concept it
// is associated with (the initial navigation tree), and each concept with
// attached results is connected to its nearest such ancestor — the maximum
// embedding of Definition 2. After a dedupe pass, the build is a counting
// sort over flat arrays: one ascending scan over concept IDs numbers the
// kept concepts, parents first, and each node's Results, ResultIndexes and
// Children are windows of flat arrays, in result and node order. Unknown
// and repeated citation IDs are ignored.
func Build(corp *corpus.Corpus, results []corpus.CitationID) *Tree {
	h := corp.Tree()

	// Dedupe pass: result order defines the dense result indexes. It also
	// snapshots each kept citation's concept list so the passes below need
	// no further lookups.
	type kept struct {
		id       corpus.CitationID
		concepts []hierarchy.ConceptID
	}
	resultIdx := make(map[corpus.CitationID]int, len(results))
	order := make([]kept, 0, len(results))
	for _, id := range results {
		if _, dup := resultIdx[id]; dup {
			continue
		}
		concepts := corp.Concepts(id)
		if concepts == nil {
			continue
		}
		resultIdx[id] = len(order)
		order = append(order, kept{id: id, concepts: concepts})
	}

	s := buildPool.Get().(*buildScratch)
	s.slot = resize(s.slot, h.Len())
	s.nodeOf = resize(s.nodeOf, h.Len())

	// Count every concept's attachments. A concept listed twice on one
	// citation gets that citation twice, as in the initial navigation tree.
	attachments, nKept := 0, 0
	for _, k := range order {
		for _, c := range k.concepts {
			if s.slot[c] == 0 {
				nKept++
			}
			s.slot[c]++
		}
		attachments += len(k.concepts)
	}

	// Number the kept concepts in ascending ID order, so the nearest kept
	// ancestor is numbered already; the root's node 0 ends every walk up.
	// slot[c] turns into the start of c's result window.
	root := h.Root()
	nodes := make([]Node, 1, nKept+1)
	nodes[0] = Node{Concept: root, Parent: -1}
	s.kids = resize(s.kids, nKept+1)
	var off int32
	for c := root + 1; len(nodes) <= nKept; c++ {
		n := s.slot[c]
		if n == 0 {
			continue
		}
		a := h.Parent(c)
		for a != root && s.nodeOf[a] == 0 {
			a = h.Parent(a)
		}
		parent := NodeID(s.nodeOf[a])
		s.nodeOf[c] = int32(len(nodes))
		s.slot[c] = off
		off += n
		s.kids[parent]++
		nodes = append(nodes, Node{Concept: c, Parent: parent, Depth: nodes[parent].Depth + 1})
	}

	// Fill the result windows; slot[c] advances to the window's end.
	cits := make([]corpus.CitationID, attachments)
	idxs := make([]int32, attachments)
	for i, k := range order {
		for _, c := range k.concepts {
			at := s.slot[c]
			cits[at], idxs[at] = k.id, int32(i)
			s.slot[c]++
		}
	}

	// Counting sort of the nodes by parent: kids[p] turns into the start of
	// p's children window, then advances to its end.
	var coff int32
	for i := range nodes {
		n := s.kids[i]
		s.kids[i] = coff
		coff += n
	}
	children := make([]NodeID, len(nodes)-1)
	for i := 1; i < len(nodes); i++ {
		p := nodes[i].Parent
		children[s.kids[p]] = i
		s.kids[p]++
	}

	// Cut the windows, clearing every scratch entry the build touched.
	nodeIdxs := make([][]int32, len(nodes))
	var lo, clo int32
	for i := range nodes {
		n := &nodes[i]
		if hi := s.kids[i]; hi > clo {
			n.Children = children[clo:hi:hi]
			clo = hi
		}
		s.kids[i] = 0
		if i == 0 {
			continue
		}
		hi := s.slot[n.Concept]
		n.Results = cits[lo:hi:hi]
		nodeIdxs[i] = idxs[lo:hi:hi]
		lo = hi
		s.slot[n.Concept], s.nodeOf[n.Concept] = 0, 0
	}
	// Not deferred: a build that panics drops its scratch instead of
	// handing dirty arrays to the next one.
	buildPool.Put(s)

	return &Tree{
		corp:        corp,
		nodes:       nodes,
		distinct:    len(order),
		attachments: attachments,
		resultIdx:   resultIdx,
		nodeIdxs:    nodeIdxs,
	}
}

// BuildParallel is Build; workers is ignored.
//
// Deprecated: the build is serial. Use Build.
func BuildParallel(corp *corpus.Corpus, results []corpus.CitationID, workers int) *Tree {
	return Build(corp, results)
}

// buildScratch is Build's working state, taken from buildPool per call.
// Every entry is zero between builds: a build clears each entry it
// touched before returning the scratch.
type buildScratch struct {
	slot   []int32 // concept → attachment count, then write cursor into the flat result arrays
	nodeOf []int32 // concept → navigation node; 0 for concepts not kept
	kids   []int32 // node → child count, then write cursor into the flat children array
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// resize returns a with length n, reallocating when its capacity is
// short. It relies on every pooled entry already being zero.
func resize(a []int32, n int) []int32 {
	if cap(a) < n {
		return make([]int32, n)
	}
	return a[:n]
}

// Corpus returns the corpus the tree was built from.
func (t *Tree) Corpus() *corpus.Corpus { return t.corp }

// Len reports the number of navigation-tree nodes, including the root.
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root node ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Parent returns id's parent, or -1 for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].Parent }

// Children returns id's children; the slice must not be modified.
func (t *Tree) Children(id NodeID) []NodeID { return t.nodes[id].Children }

// Concept returns the hierarchy concept a node represents.
func (t *Tree) Concept(id NodeID) hierarchy.ConceptID { return t.nodes[id].Concept }

// Label returns the concept label of a node.
func (t *Tree) Label(id NodeID) string { return t.corp.Tree().Label(t.nodes[id].Concept) }

// Results returns the citations attached directly to a node (res(n)); the
// slice must not be modified.
func (t *Tree) Results(id NodeID) []corpus.CitationID { return t.nodes[id].Results }

// NumResults returns |res(n)|.
func (t *Tree) NumResults(id NodeID) int { return len(t.nodes[id].Results) }

// GlobalCount returns the MEDLINE-wide citation count of the node's concept
// (cnt(n) of §IV).
func (t *Tree) GlobalCount(id NodeID) int64 {
	return t.corp.GlobalCount(t.nodes[id].Concept)
}

// DistinctTotal reports the number of distinct citations in the whole tree
// (= size of the query result that reached any concept).
func (t *Tree) DistinctTotal() int { return t.distinct }

// Attachments reports the number of citations attached across the tree's
// nodes, counted with duplicates (Stats.TotalAttached).
func (t *Tree) Attachments() int { return t.attachments }

// ResultIndex maps a result citation to its dense index in [0,
// DistinctTotal()); used to build per-node citation bitsets. The second
// return is false for citations outside the query result.
func (t *Tree) ResultIndex(id corpus.CitationID) (int, bool) {
	i, ok := t.resultIdx[id]
	return i, ok
}

// ResultIndexes returns Results(id) mapped through ResultIndex, in the
// same order — the dense citation indexes a bitset builder needs, with no
// per-citation map lookups. The slice must not be modified.
func (t *Tree) ResultIndexes(id NodeID) []int32 { return t.nodeIdxs[id] }

// Aggregates returns per-tree derived state, computing it with compute on
// the first call and returning that same value to every later caller,
// including concurrent ones, which wait for the first to finish. The
// tree is immutable, so the value never goes stale; the caller owns its
// layout and its synchronization. Package core keeps its active-tree
// aggregates here so that every session over a cached tree shares one
// copy, and with them a mutex-guarded memo of solved EdgeCuts that the
// sessions fill; it is the only caller, which is why the first compute
// wins. The value lives and dies with the tree.
func (t *Tree) Aggregates(compute func(*Tree) any) any {
	t.aggOnce.Do(func() { t.agg = compute(t) })
	return t.agg
}

// NodeByConcept resolves a concept to its navigation-tree node by binary
// search: nodes ascend by concept ID.
func (t *Tree) NodeByConcept(c hierarchy.ConceptID) (NodeID, bool) {
	i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i].Concept >= c })
	if i == len(t.nodes) || t.nodes[i].Concept != c {
		return 0, false
	}
	return i, true
}

// IsAncestor reports whether a is a proper ancestor of b in the navigation
// tree.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	if a == b {
		return false
	}
	for cur := t.nodes[b].Parent; cur != -1; cur = t.nodes[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// PreOrder visits the subtree rooted at id; returning false from visit
// prunes the node's descendants.
func (t *Tree) PreOrder(id NodeID, visit func(NodeID) bool) {
	if !visit(id) {
		return
	}
	for _, c := range t.nodes[id].Children {
		t.PreOrder(c, visit)
	}
}

// Subtree returns id and all its descendants in pre-order.
func (t *Tree) Subtree(id NodeID) []NodeID {
	var out []NodeID
	t.PreOrder(id, func(n NodeID) bool { out = append(out, n); return true })
	return out
}

// DistinctIn returns the number of distinct citations attached to the given
// set of nodes — the count displayed next to each concept in the paper's
// interface (Definition 5).
func (t *Tree) DistinctIn(nodes []NodeID) int {
	seen := make(map[corpus.CitationID]struct{})
	for _, n := range nodes {
		for _, c := range t.nodes[n].Results {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// Stats are the navigation-tree characteristics reported in Table I.
type Stats struct {
	Size           int // nodes with attached citations (excludes the root)
	MaxLevelWidth  int // maximum number of nodes at any depth
	Height         int
	TotalAttached  int // citations counted with duplicates (cf. 30,895 in §I)
	DistinctTotal  int
	DuplicateRatio float64 // TotalAttached / DistinctTotal
}

// ComputeStats scans the tree once.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Size: len(t.nodes) - 1, TotalAttached: t.attachments, DistinctTotal: t.distinct}
	widths := make(map[int]int)
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		widths[n.Depth]++
		if n.Depth > s.Height {
			s.Height = n.Depth
		}
	}
	for _, w := range widths {
		if w > s.MaxLevelWidth {
			s.MaxLevelWidth = w
		}
	}
	if s.DistinctTotal > 0 {
		s.DuplicateRatio = float64(s.TotalAttached) / float64(s.DistinctTotal)
	}
	return s
}

// Validate checks the structural invariants used by property tests: every
// non-root node has attached results, parents precede children, depths are
// consistent, and hierarchy ancestry is preserved by the embedding.
func (t *Tree) Validate() error {
	h := t.corp.Tree()
	if len(t.nodes) == 0 || t.nodes[0].Parent != -1 {
		return fmt.Errorf("navtree: malformed root")
	}
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		if len(n.Results) == 0 {
			return fmt.Errorf("navtree: node %d (%s) has empty results", i, t.Label(i))
		}
		if n.Parent < 0 || n.Parent >= i {
			return fmt.Errorf("navtree: node %d has invalid parent %d", i, n.Parent)
		}
		if t.nodes[n.Parent].Depth+1 != n.Depth {
			return fmt.Errorf("navtree: node %d depth inconsistent", i)
		}
		// Embedding property: the navigation-tree parent's concept must be
		// a hierarchy ancestor of the node's concept (or the root).
		pc := t.nodes[n.Parent].Concept
		if pc != h.Root() && !h.IsAncestor(pc, n.Concept) {
			return fmt.Errorf("navtree: node %d parent concept %d is not a hierarchy ancestor", i, pc)
		}
	}
	return nil
}
