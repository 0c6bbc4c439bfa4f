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
	corp      *corpus.Corpus
	nodes     []Node
	byConcept map[hierarchy.ConceptID]NodeID
	distinct  int // distinct citations across the whole tree
	resultIdx map[corpus.CitationID]int
	nodeIdxs  [][]int32 // per node: Results mapped through resultIdx

	aggOnce sync.Once
	agg     any // see Aggregates
}

// Build constructs the navigation tree for the given query result over
// corp's hierarchy. Each result citation is attached to every concept it is
// associated with (the initial navigation tree); concepts with no attached
// results are then elided by connecting each kept concept to its nearest
// kept ancestor — the maximum embedding of Definition 2, computed in a
// single pass over concepts in ascending ID order (parents precede
// children). Unknown citation IDs are ignored.
func Build(corp *corpus.Corpus, results []corpus.CitationID) *Tree {
	return build(corp, results, 1)
}

// BuildParallel is Build with concept attachment and result-list fill
// sharded across up to `workers` goroutines, partitioned by top-level
// hierarchy subtree (every MeSH descriptor under one top-level category
// lands on the same shard). Sharding preserves the serial scan order
// within every shard, so the resulting tree is identical — node for
// node, slice for slice — to Build's; the differential test asserts it.
// workers <= 1 falls back to the serial path.
func BuildParallel(corp *corpus.Corpus, results []corpus.CitationID, workers int) *Tree {
	return build(corp, results, workers)
}

// attachShard is one shard's view of phase 1: the per-concept citation
// lists (and their dense-index mirrors) for the concepts this shard owns.
type attachShard struct {
	attached    map[hierarchy.ConceptID][]corpus.CitationID
	attachedIdx map[hierarchy.ConceptID][]int32
}

func build(corp *corpus.Corpus, results []corpus.CitationID, workers int) *Tree {
	h := corp.Tree()

	// Dedupe pass (serial: result order defines the dense result indexes).
	// It also snapshots each kept citation's concept list so the attach
	// shards can scan without re-resolving.
	type kept struct {
		id       corpus.CitationID
		concepts []hierarchy.ConceptID
	}
	seen := make(map[corpus.CitationID]struct{}, len(results))
	resultIdx := make(map[corpus.CitationID]int, len(results))
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
		resultIdx[id] = len(resultIdx)
		order = append(order, kept{id: id, concepts: concepts})
	}

	// Attach phase: append every kept citation to the list of each of its
	// concepts. attachedIdx mirrors attached with the dense result indexes
	// so consumers building bitsets (core.NewActiveTree) need no map
	// lookups afterwards. With workers > 1 the work shards by top-level
	// subtree: each worker scans the deduped citations in the same order
	// as the serial code but appends only to concepts its shard owns, so
	// every per-concept list comes out in the identical order.
	if workers > len(order) {
		workers = len(order)
	}
	var shards []attachShard
	var shardOf []int32 // concept → owning shard; nil when serial
	if workers > 1 {
		shardOf = shardByTopLevel(h, workers)
		shards = make([]attachShard, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				sh := attachShard{
					attached:    make(map[hierarchy.ConceptID][]corpus.CitationID),
					attachedIdx: make(map[hierarchy.ConceptID][]int32),
				}
				for idx, k := range order {
					for _, c := range k.concepts {
						if int(shardOf[c]) != w {
							continue
						}
						sh.attached[c] = append(sh.attached[c], k.id)
						sh.attachedIdx[c] = append(sh.attachedIdx[c], int32(idx))
					}
				}
				shards[w] = sh
			}(w)
		}
		wg.Wait()
	} else {
		sh := attachShard{
			attached:    make(map[hierarchy.ConceptID][]corpus.CitationID),
			attachedIdx: make(map[hierarchy.ConceptID][]int32),
		}
		for idx, k := range order {
			for _, c := range k.concepts {
				sh.attached[c] = append(sh.attached[c], k.id)
				sh.attachedIdx[c] = append(sh.attachedIdx[c], int32(idx))
			}
		}
		shards = []attachShard{sh}
	}

	nAttached := 0
	for _, sh := range shards {
		nAttached += len(sh.attached)
	}
	t := &Tree{
		corp:      corp,
		byConcept: make(map[hierarchy.ConceptID]NodeID, nAttached+1),
		distinct:  len(resultIdx),
		resultIdx: resultIdx,
	}
	t.nodes = append(t.nodes, Node{Concept: h.Root(), Parent: -1})
	t.nodeIdxs = append(t.nodeIdxs, nil)
	t.byConcept[h.Root()] = 0

	// Concept IDs ascend from parents to children, so a single ordered scan
	// sees every kept ancestor before its descendants. The shards partition
	// the concept set, so the union of their keys is exactly the serial
	// attached set.
	conceptIDs := make([]hierarchy.ConceptID, 0, nAttached)
	for _, sh := range shards {
		for c := range sh.attached {
			conceptIDs = append(conceptIDs, c)
		}
	}
	sort.Slice(conceptIDs, func(i, j int) bool { return conceptIDs[i] < conceptIDs[j] })

	for _, c := range conceptIDs {
		sh := &shards[0]
		if shardOf != nil {
			sh = &shards[shardOf[c]]
		}
		parentNode := t.findKeptAncestor(h, c)
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, Node{
			Concept: c,
			Parent:  parentNode,
			Results: sh.attached[c],
			Depth:   t.nodes[parentNode].Depth + 1,
		})
		t.nodeIdxs = append(t.nodeIdxs, sh.attachedIdx[c])
		t.nodes[parentNode].Children = append(t.nodes[parentNode].Children, id)
		t.byConcept[c] = id
	}
	return t
}

// shardByTopLevel assigns every hierarchy concept to one of `workers`
// shards such that a whole top-level subtree shares a shard (round-robin
// over top-level concepts in ID order). Concept IDs ascend from parents
// to children, so one forward pass inherits the parent's shard.
func shardByTopLevel(h *hierarchy.Tree, workers int) []int32 {
	shard := make([]int32, h.Len())
	next := int32(0)
	root := h.Root()
	for c := root + 1; c < hierarchy.ConceptID(h.Len()); c++ {
		if h.Parent(c) == root {
			shard[c] = next % int32(workers)
			next++
			continue
		}
		shard[c] = shard[h.Parent(c)]
	}
	return shard
}

// findKeptAncestor walks up the hierarchy from concept c to the nearest
// ancestor that is already a navigation-tree node (ultimately the root).
func (t *Tree) findKeptAncestor(h *hierarchy.Tree, c hierarchy.ConceptID) NodeID {
	for cur := h.Parent(c); ; cur = h.Parent(cur) {
		if id, ok := t.byConcept[cur]; ok {
			return id
		}
	}
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
// layout and must treat it as read-only. Package core keeps its
// active-tree aggregates here so that every session over a cached tree
// shares one copy; it is the only caller, which is why the first
// compute wins.
func (t *Tree) Aggregates(compute func(*Tree) any) any {
	t.aggOnce.Do(func() { t.agg = compute(t) })
	return t.agg
}

// NodeByConcept resolves a concept to its navigation-tree node.
func (t *Tree) NodeByConcept(c hierarchy.ConceptID) (NodeID, bool) {
	id, ok := t.byConcept[c]
	return id, ok
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
	s := Stats{Size: len(t.nodes) - 1, DistinctTotal: t.distinct}
	widths := make(map[int]int)
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		widths[n.Depth]++
		s.TotalAttached += len(n.Results)
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
