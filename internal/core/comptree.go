package core

import (
	"fmt"

	"bionav/internal/navtree"
)

// compTree is the small tree Opt-EdgeCut runs on. Its nodes are the
// partitions of a component (partitioner.compTree): the k-partition's
// supernodes (§VI-B), or one node per member when the partition is the
// identity (exactCompTree). Node 0 is the root;
// Parent[i] < i for all i > 0 so iteration in index order is a valid
// pre-order.
type compTree struct {
	Parent   []int
	Children [][]int
	Bits     []bitset  // union of member citation bitsets
	Own      []int     // popcount(Bits[i]): distinct citations inside node i
	Size     []int     // navigation members in node i
	Score    []float64 // sum of member selectivity scores
	NavEdge  []Edge    // for i > 0: the navigation-tree edge whose cut detaches node i
	Sum      float64   // the active tree's Σ s(m) normalizer
	descMask []uint64  // bitmask of each node's subtree (including itself)

	// Child-list pre-order, used by the Opt-EdgeCut fold: pre is the node
	// sequence of a DFS that follows Children in order (which can differ
	// from index order when sibling subtrees interleave), preIdx maps a
	// node to its position in pre, and preEnd to the position just past its
	// subtree — so [preIdx[v]+1, preEnd[v]) spans exactly the nodes whose
	// parent edges a cut of the component rooted at v may sever.
	pre    []int
	preIdx []int
	preEnd []int
}

// maxOptNodes bounds the trees Opt-EdgeCut accepts. The DP enumerates
// ancestor-closed subsets as bitmasks, so this must stay below 64; the
// practical real-time limit the paper reports is ~10.
const maxOptNodes = 24

// exactCompTree builds the compTree with one node per member of the
// component rooted at root, which must be a component root: its identity
// partition.
func exactCompTree(at *ActiveTree, root navtree.NodeID) (*compTree, error) {
	n := at.ComponentSize(root)
	if n > maxOptNodes {
		return nil, fmt.Errorf("core: component of %d nodes exceeds Opt-EdgeCut limit %d", n, maxOptNodes)
	}
	return splitComponent(at, root, n).compTree()
}

func newCompTree(n int, sum float64) *compTree {
	counts := make([]int, 2*n) // Own and Size share one allocation
	return &compTree{
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Bits:     make([]bitset, n),
		Own:      counts[:n:n],
		Size:     counts[n:],
		Score:    make([]float64, n),
		NavEdge:  make([]Edge, n),
		Sum:      sum,
		descMask: make([]uint64, n),
	}
}

func (ct *compTree) len() int { return len(ct.Parent) }

// computeDescMasks fills descMask bottom-up (children have larger indexes)
// and the pre-order tables the Opt-EdgeCut fold walks; every construction
// path must call it last.
func (ct *compTree) computeDescMasks() {
	for i := ct.len() - 1; i >= 0; i-- {
		m := uint64(1) << uint(i)
		for _, c := range ct.Children[i] {
			m |= ct.descMask[c]
		}
		ct.descMask[i] = m
	}
	ct.computePreOrder()
}

func (ct *compTree) computePreOrder() {
	n := ct.len()
	ct.pre = make([]int, 0, n)
	ct.preIdx = make([]int, n)
	ct.preEnd = make([]int, n)
	var walk func(v int)
	walk = func(v int) {
		ct.preIdx[v] = len(ct.pre)
		ct.pre = append(ct.pre, v)
		for _, c := range ct.Children[v] {
			walk(c)
		}
		ct.preEnd[v] = len(ct.pre)
	}
	walk(0)
}

// exploreProb returns pX for the set of compTree nodes in mask.
func (ct *compTree) exploreProb(mask uint64) float64 {
	if ct.Sum == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < ct.len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			s += ct.Score[i]
		}
	}
	p := s / ct.Sum
	if p > 1 {
		p = 1
	}
	return p
}

// distinct returns |L| for the union of the nodes in mask.
func (ct *compTree) distinct(mask uint64, scratch bitset) int {
	scratch.clear()
	for i := 0; i < ct.len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			scratch.orInto(ct.Bits[i])
		}
	}
	return scratch.count()
}
