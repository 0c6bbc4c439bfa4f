package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"bionav/internal/navtree"
)

// This file implements the tree-partitioning step of Heuristic-ReducedOpt
// (§VI-B), adapted from the k-partition algorithm of Kundu & Misra [11]:
// processing the component bottom-up, each node sheds its heaviest child
// clusters as finished partitions until its remaining weight is at most
// the threshold W. Starting from W = Σw / k, W is multiplied by 1.5 until
// at most k partitions remain.
//
// One iterative pre-order walk lays the component out flat: slot → NodeID,
// parent slot, CSR child lists and integer node weights. A W sweep is then
// one reverse pass over the slots (every child's slot follows its
// parent's) that allocates nothing and sorts a node's children only when
// the node must detach some, so a sweep costs O(n) plus O(f log f) for
// each detaching node of fanout f. Once the roots are final, a slot →
// partition array built in one forward pass yields the reduced tree.

// kpScratch is the flat layout of one component plus the sweep state. It
// is taken per call from kpPool rather than kept on the ActiveTree,
// because SolveComponents runs ChooseCut on one ActiveTree from several
// goroutines at once.
type kpScratch struct {
	node   []navtree.NodeID // slot → NodeID, in pre-order
	par    []int32          // slot → parent slot; -1 for the component root
	kidOff []int32          // children of slot s are kids[kidOff[s]:kidOff[s+1]]
	kids   []int32          // child slots, in navigation child order
	wt     []int64          // |res(n)| + 1 per slot
	sub    []int64          // weight of each slot's whole component subtree
	acc    []int64          // per sweep: weight of each slot's remaining cluster
	part   []int32          // slot → partition index, once the roots are final
	roots  []int32          // partition root slots
	order  []int32          // one node's children, sorted for detachment
	stack  []walkItem
	sweeps int // W sweeps run by the last split
}

type walkItem struct {
	node navtree.NodeID
	par  int32
}

var kpPool = sync.Pool{New: func() any { return new(kpScratch) }}

// load lays out the component rooted at root in pre-order (the order of
// ActiveTree.Members). The layout is empty when root is not a component
// root.
func (sc *kpScratch) load(at *ActiveTree, root navtree.NodeID) {
	sc.node, sc.par, sc.wt = sc.node[:0], sc.par[:0], sc.wt[:0]
	sc.roots, sc.sweeps = sc.roots[:0], 0
	if at.compOf[root] != root {
		return
	}
	stack := append(sc.stack[:0], walkItem{node: root, par: -1})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := int32(len(sc.node))
		sc.node = append(sc.node, it.node)
		sc.par = append(sc.par, it.par)
		sc.wt = append(sc.wt, int64(at.nav.NumResults(it.node))+1)
		// Pushed in reverse so the children pop in navigation order.
		kids := at.nav.Children(it.node)
		for i := len(kids) - 1; i >= 0; i-- {
			if c := kids[i]; at.compOf[c] == root {
				stack = append(stack, walkItem{node: c, par: s})
			}
		}
	}
	sc.stack = stack

	n := len(sc.node)
	sc.kidOff = resize(sc.kidOff, n+1)
	clear(sc.kidOff)
	for s := 1; s < n; s++ {
		sc.kidOff[sc.par[s]+1]++
	}
	for s := 0; s < n; s++ {
		sc.kidOff[s+1] += sc.kidOff[s]
	}
	// Fill with kidOff[p] as p's cursor, leaving it at p's end (= the start
	// of p+1), then shift the offsets back into place.
	sc.kids = resize(sc.kids, n-1)
	for s := 1; s < n; s++ {
		p := sc.par[s]
		sc.kids[sc.kidOff[p]] = int32(s)
		sc.kidOff[p]++
	}
	copy(sc.kidOff[1:], sc.kidOff[:n])
	sc.kidOff[0] = 0

	sc.sub = resize(sc.sub, n)
	copy(sc.sub, sc.wt)
	for s := n - 1; s >= 1; s-- {
		sc.sub[sc.par[s]] += sc.sub[s]
	}
	sc.acc = resize(sc.acc, n)
	sc.part = resize(sc.part, n)
}

// split partitions the loaded component into at most k connected clusters
// (k < 1 counts as 1), leaving the root slots in sc.roots in partition
// order and every slot's partition in sc.part. When the component has at
// most k members, each member is its own partition, in pre-order.
// Otherwise partitions are ordered by root NodeID, so the component root
// comes first and a partition's parent always precedes it.
func (sc *kpScratch) split(k int) {
	n := len(sc.node)
	if k < 1 {
		k = 1
	}
	if n <= k {
		sc.roots = sc.roots[:0]
		for s := 0; s < n; s++ {
			sc.roots = append(sc.roots, int32(s))
			sc.part[s] = int32(s)
		}
		return
	}
	w := float64(sc.sub[0]) / float64(k)
	for {
		sc.sweep(w)
		if len(sc.roots) <= k {
			break
		}
		w *= 1.5
	}
	if len(sc.roots) == 1 {
		// Skewed weights can overshoot the threshold and leave a single
		// cluster, which gives Opt-EdgeCut nothing to cut: force a two-way
		// split on the heaviest child subtree.
		sc.roots = append(sc.roots, sc.heaviestChild())
	}
	slices.SortFunc(sc.roots, func(a, b int32) int { return cmp.Compare(sc.node[a], sc.node[b]) })
	if sc.roots[0] != 0 {
		panic("core: partition ordering violated")
	}
	for s := range sc.part {
		sc.part[s] = -1
	}
	for i, r := range sc.roots {
		sc.part[r] = int32(i)
	}
	for s := 1; s < n; s++ {
		if sc.part[s] < 0 {
			sc.part[s] = sc.part[sc.par[s]]
		}
	}
}

// sweep runs one bottom-up pass with threshold w and leaves in sc.roots
// the component root followed by every detached cluster root.
func (sc *kpScratch) sweep(w float64) {
	sc.sweeps++
	acc := sc.acc
	copy(acc, sc.wt)
	roots := append(sc.roots[:0], 0)
	for s := len(sc.node) - 1; s >= 0; s-- {
		if float64(acc[s]) > w {
			// Heaviest-first detachment: children by remaining weight
			// descending, ties by NodeID ascending (not by slot: slots
			// follow pre-order, which is not NodeID order).
			kids := append(sc.order[:0], sc.kids[sc.kidOff[s]:sc.kidOff[s+1]]...)
			slices.SortFunc(kids, func(a, b int32) int {
				if acc[a] != acc[b] {
					return cmp.Compare(acc[b], acc[a])
				}
				return cmp.Compare(sc.node[a], sc.node[b])
			})
			for _, c := range kids {
				if float64(acc[s]) <= w {
					break
				}
				roots = append(roots, c)
				acc[s] -= acc[c]
			}
			sc.order = kids
		}
		if s > 0 {
			acc[sc.par[s]] += acc[s]
		}
	}
	sc.roots = roots
}

// heaviestChild returns the slot of the component root's child whose
// subtree carries the most weight, the first in child order on ties. The
// component must have a child edge.
func (sc *kpScratch) heaviestChild() int32 {
	best, bestWeight := int32(-1), int64(-1)
	for _, c := range sc.kids[sc.kidOff[0]:sc.kidOff[1]] {
		if sc.sub[c] > bestWeight {
			best, bestWeight = c, sc.sub[c]
		}
	}
	return best
}

// compTree builds the reduced supernode tree T_R from the last split: a
// supernode's bits and score are the union and the sum (in pre-order)
// over its members, and its parent is the partition holding its root's
// navigation parent.
func (sc *kpScratch) compTree(at *ActiveTree) (*compTree, error) {
	np := len(sc.roots)
	if np > maxOptNodes {
		return nil, fmt.Errorf("core: %d partitions exceed Opt-EdgeCut limit %d", np, maxOptNodes)
	}
	ct := newCompTree(np, at.SumScores())
	words := (at.nav.DistinctTotal() + 63) / 64
	back := make([]uint64, np*words)
	for i := range ct.Bits {
		ct.Bits[i] = bitset(back[i*words : (i+1)*words])
	}
	for s, n := range sc.node {
		p := sc.part[s]
		ct.Bits[p].orInto(at.nodeBits(n))
		ct.Score[p] += at.nodeScore(n)
	}
	for i, r := range sc.roots {
		ct.Own[i] = ct.Bits[i].count()
		if i == 0 {
			ct.Parent[i] = -1
			continue
		}
		pi := int(sc.part[sc.par[r]])
		if pi >= i {
			return nil, fmt.Errorf("core: partition order violated: parent %d !< child %d", pi, i)
		}
		ct.Parent[i] = pi
		ct.Children[pi] = append(ct.Children[pi], i)
		ct.NavEdge[i] = Edge{Parent: sc.node[sc.par[r]], Child: sc.node[r]}
	}
	ct.computeDescMasks()
	return ct, nil
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
