// Package navtree builds BioNav's navigation tree (Definition 2 of the
// paper): the maximum embedding of the initial navigation tree — the MeSH
// concept hierarchy with each query-result citation attached to its
// associated concepts — such that no node except the root has an empty
// results list. Ancestor/descendant relationships of the hierarchy are
// preserved.
package navtree

import (
	"fmt"
	"slices"
	"sync"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// NodeID indexes a node within a navigation Tree. The root is always 0.
type NodeID = int

// Tree is an immutable navigation tree for one query result. Its nodes
// ascend by concept ID, so parents precede children, and it keeps them
// as flat columns that hold no pointers, which the garbage collector
// does not scan.
type Tree struct {
	corp *corpus.Corpus

	concept []hierarchy.ConceptID // per node: its concept, ascending
	parent  []int32               // per node: its parent; -1 for the root
	depth   []int32               // per node: depth within the navigation tree (root = 0)

	// Node i's children are children[kidOff[i]:kidOff[i+1]], in ascending
	// order; its results are cits[resOff[i]:resOff[i+1]], and their dense
	// result indexes sit at the same positions of idxs.
	kidOff   []int32
	children []NodeID
	resOff   []int32
	cits     []corpus.CitationID
	idxs     []int32

	distinct    int // distinct citations across the whole tree
	attachments int // citations attached across all nodes, with duplicates

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
	seen := make(map[corpus.CitationID]struct{}, len(results))
	order := make([]kept, 0, len(results))
	for _, id := range results {
		if _, dup := seen[id]; dup {
			continue
		}
		concepts := corp.Concepts(id)
		if concepts == nil {
			continue
		}
		seen[id] = struct{}{}
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
	// slot[c] turns into the start of c's result window, and kidOff[p]
	// counts p's children.
	n := nKept + 1
	t := &Tree{
		corp:        corp,
		concept:     make([]hierarchy.ConceptID, n),
		children:    make([]NodeID, n-1),
		cits:        make([]corpus.CitationID, attachments),
		idxs:        make([]int32, attachments),
		distinct:    len(order),
		attachments: attachments,
	}
	back := make([]int32, 4*n+2)
	t.parent, t.depth = back[:n:n], back[n:2*n:2*n]
	t.kidOff, t.resOff = back[2*n:3*n+1:3*n+1], back[3*n+1:]
	root := h.Root()
	t.concept[0], t.parent[0] = root, -1
	var off int32
	for c, i := root+1, 1; i < n; c++ {
		cnt := s.slot[c]
		if cnt == 0 {
			continue
		}
		a := h.Parent(c)
		for a != root && s.nodeOf[a] == 0 {
			a = h.Parent(a)
		}
		p := s.nodeOf[a]
		s.nodeOf[c] = int32(i)
		s.slot[c] = off
		t.concept[i], t.parent[i], t.depth[i], t.resOff[i] = c, p, t.depth[p]+1, off
		off += cnt
		t.kidOff[p]++
		i++
	}
	t.resOff[n] = off

	// Fill the result windows; slot[c] advances to the window's end.
	for i, k := range order {
		for _, c := range k.concepts {
			at := s.slot[c]
			t.cits[at], t.idxs[at] = k.id, int32(i)
			s.slot[c]++
		}
	}
	// Clear every scratch entry the build touched. Not deferred: a build
	// that panics drops its scratch instead of handing dirty arrays to the
	// next one.
	for _, c := range t.concept[1:] {
		s.slot[c], s.nodeOf[c] = 0, 0
	}
	buildPool.Put(s)

	// Counting sort of the nodes by parent: kidOff[p] turns into the end of
	// p's children window, then, filled from the back, into its start.
	for i := 1; i < n; i++ {
		t.kidOff[i] += t.kidOff[i-1]
	}
	t.kidOff[n] = t.kidOff[n-1]
	for i := n - 1; i >= 1; i-- {
		p := t.parent[i]
		t.kidOff[p]--
		t.children[t.kidOff[p]] = i
	}
	return t
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
func (t *Tree) Len() int { return len(t.concept) }

// Root returns the root node ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Parent returns id's parent, or -1 for the root.
func (t *Tree) Parent(id NodeID) NodeID { return NodeID(t.parent[id]) }

// Depth returns id's depth within the navigation tree; the root's is 0.
func (t *Tree) Depth(id NodeID) int { return int(t.depth[id]) }

// Children returns id's children; the slice must not be modified.
func (t *Tree) Children(id NodeID) []NodeID { return window(t.children, t.kidOff, id) }

// Concept returns the hierarchy concept a node represents.
func (t *Tree) Concept(id NodeID) hierarchy.ConceptID { return t.concept[id] }

// Label returns the concept label of a node.
func (t *Tree) Label(id NodeID) string { return t.corp.Tree().Label(t.concept[id]) }

// Results returns the citations attached directly to a node (res(n)); the
// slice must not be modified.
func (t *Tree) Results(id NodeID) []corpus.CitationID { return window(t.cits, t.resOff, id) }

// NumResults returns |res(n)|.
func (t *Tree) NumResults(id NodeID) int { return int(t.resOff[id+1] - t.resOff[id]) }

// GlobalCount returns the MEDLINE-wide citation count of the node's concept
// (cnt(n) of §IV).
func (t *Tree) GlobalCount(id NodeID) int64 {
	return t.corp.GlobalCount(t.concept[id])
}

// window returns the entries of a from off[id] to off[id+1], or nil when
// there are none.
func window[E any](a []E, off []int32, id NodeID) []E {
	lo, hi := off[id], off[id+1]
	if lo == hi {
		return nil
	}
	return a[lo:hi:hi]
}

// DistinctTotal reports the number of distinct citations in the whole tree
// (= size of the query result that reached any concept).
func (t *Tree) DistinctTotal() int { return t.distinct }

// Attachments reports the number of citations attached across the tree's
// nodes, counted with duplicates (Stats.TotalAttached).
func (t *Tree) Attachments() int { return t.attachments }

// ResultIndexes returns the dense index in [0, DistinctTotal()) of each
// of Results(id), in the same order: a citation's position among the
// distinct known citations of the result list, in the order Build was
// given them. These are the indexes a per-node citation bitset needs. The
// slice must not be modified.
func (t *Tree) ResultIndexes(id NodeID) []int32 { return window(t.idxs, t.resOff, id) }

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
	i, ok := slices.BinarySearch(t.concept, c)
	if !ok {
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
	for cur := t.parent[b]; cur != -1; cur = t.parent[cur] {
		if NodeID(cur) == a {
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
	for _, c := range t.Children(id) {
		t.PreOrder(c, visit)
	}
}

// Subtree returns id and all its descendants in pre-order.
func (t *Tree) Subtree(id NodeID) []NodeID {
	var out []NodeID
	t.PreOrder(id, func(n NodeID) bool { out = append(out, n); return true })
	return out
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
	s := Stats{Size: t.Len() - 1, TotalAttached: t.attachments, DistinctTotal: t.distinct}
	widths := make(map[int]int)
	for _, d := range t.depth[1:] {
		widths[int(d)]++
		s.Height = max(s.Height, int(d))
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
	if t.Len() == 0 || t.parent[0] != -1 {
		return fmt.Errorf("navtree: malformed root")
	}
	for i := 1; i < t.Len(); i++ {
		if t.NumResults(i) == 0 {
			return fmt.Errorf("navtree: node %d (%s) has empty results", i, t.Label(i))
		}
		p := t.Parent(i)
		if p < 0 || p >= i {
			return fmt.Errorf("navtree: node %d has invalid parent %d", i, p)
		}
		if t.depth[p]+1 != t.depth[i] {
			return fmt.Errorf("navtree: node %d depth inconsistent", i)
		}
		// Embedding property: the navigation-tree parent's concept must be
		// a hierarchy ancestor of the node's concept (or the root).
		pc := t.concept[p]
		if pc != h.Root() && !h.IsAncestor(pc, t.concept[i]) {
			return fmt.Errorf("navtree: node %d parent concept %d is not a hierarchy ancestor", i, pc)
		}
	}
	return nil
}
