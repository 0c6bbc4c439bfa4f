package core

import (
	"cmp"
	"fmt"
	"slices"

	"bionav/internal/navtree"
)

// This file implements the tree-partitioning step of Heuristic-ReducedOpt
// (§VI-B), adapted from the k-partition algorithm of Kundu & Misra [11]:
// processing the component bottom-up, each node sheds its heaviest child
// clusters as finished partitions until its remaining weight is at most
// the threshold W. Starting from W = Σw / k, W is multiplied by 1.5 until
// at most k partitions remain.
//
// The partition lays nothing out: it reads the tree's shared pre-order
// aggregates. A member's weight within its component is its navigation
// subtree's weight less those of the component roots directly below the
// component that lie in its pre-order range. A member that weighs at most
// W detaches nothing and keeps its whole weight, so a W sweep recurses
// only into the members heavier than W, an ancestor-closed set that
// shrinks as W grows, and reads the weights of their children. Once the
// roots are final, one pre-order pass over the component's range assigns
// each member its partition and builds the reduced tree.
//
// This is the one way internal/core reduces a component for a solver: the
// exact tree Opt-EdgeCut runs on is the identity partition
// (exactCompTree).

// partitioner is the k-partition of one component. It is made per call
// rather than kept on the ActiveTree, because SolveComponents runs
// ChooseCut on one ActiveTree from several goroutines at once.
type partitioner struct {
	at   *ActiveTree
	root navtree.NodeID

	// The pre-order positions of the component roots directly below the
	// component, ascending, and cum[i], the summed subtree weights of
	// below[:i].
	below []int32
	cum   []int64

	kids       []uint64         // the child lists of the members on a sweep's path, end to end (kidKey)
	roots      []navtree.NodeID // partition roots, in partition order once splitComponent returns
	parent     []int            // per partition, once assign has run: the partition holding its root's navigation parent; -1 for the first
	sweeps     int              // W sweeps run
	sweepNodes int              // members the sweeps examined, summed over sweeps
}

// kidKey packs a child of a member a sweep visits with the weight it
// keeps, so that ascending keys order the children heaviest first and by
// NodeID on ties. Weights fit 31 bits: they are sums of an int32 column.
func kidKey(c navtree.NodeID, acc int64) uint64 {
	return uint64(^uint32(acc))<<32 | uint64(uint32(c))
}

// unpackKid inverts kidKey.
func unpackKid(key uint64) (navtree.NodeID, int64) {
	return navtree.NodeID(uint32(key)), int64(^uint32(key >> 32))
}

// splitComponent partitions the component rooted at root, which must be
// a component root, into at most k connected clusters (k < 1 counts as 1).
// When the component has at most k members, each member is its own
// partition, in pre-order. Otherwise partitions are ordered by root
// NodeID, so the component root comes first and a partition's parent
// always precedes it.
func splitComponent(at *ActiveTree, root navtree.NodeID, k int) *partitioner {
	p := &partitioner{at: at, root: root, below: at.rootsBelow(root, nil)}
	for i, r := range p.below {
		p.below[i] = at.pos[r]
	}
	slices.Sort(p.below)
	p.cum = make([]int64, len(p.below)+1)
	for i, q := range p.below {
		p.cum[i+1] = p.cum[i] + int64(at.subtreeWeight[at.pre[q]])
	}
	if k = max(k, 1); at.ComponentSize(root) <= k {
		at.scan(root, func(m navtree.NodeID) { p.roots = append(p.roots, m) })
	} else {
		p.split(k)
	}
	return p
}

// weight returns the weight of member n's subtree within the component:
// Σ (|res(m)|+1) over its members.
func (p *partitioner) weight(n navtree.NodeID) int64 {
	at := p.at
	w := int64(at.subtreeWeight[n])
	if len(p.below) == 0 {
		return w
	}
	lo, hi := at.pos[n], at.pos[n]+at.subtreeSize[n]
	i, _ := slices.BinarySearch(p.below, lo)
	j, _ := slices.BinarySearch(p.below, hi)
	return w - (p.cum[j] - p.cum[i])
}

// split runs the W sweeps on a component of more than k members and
// leaves the partition roots in p.roots, ordered by NodeID.
func (p *partitioner) split(k int) {
	total := p.weight(p.root)
	w := float64(total) / float64(k)
	// Room for the root's children and a path below them, and for a
	// first sweep that detaches several times k clusters.
	p.kids = make([]uint64, 0, 2*len(p.at.nav.Children(p.root))+64)
	p.roots = make([]navtree.NodeID, 0, 4*k)
	for {
		p.sweep(total, w)
		if len(p.roots) <= k {
			break
		}
		w *= 1.5
	}
	if len(p.roots) == 1 {
		// Skewed weights can overshoot the threshold and leave a single
		// cluster, which gives Opt-EdgeCut nothing to cut: force a two-way
		// split on the heaviest child subtree.
		p.roots = append(p.roots, p.heaviestChild())
	}
	slices.Sort(p.roots)
	if p.roots[0] != p.root {
		panic("core: partition ordering violated")
	}
}

// sweep runs one bottom-up pass with threshold w and leaves in p.roots
// the component root followed by every detached cluster root.
func (p *partitioner) sweep(total int64, w float64) {
	p.sweeps++
	p.sweepNodes++
	p.roots = append(p.roots[:0], p.root)
	if float64(total) > w {
		p.shed(p.root, w)
	}
}

// shed returns the weight member n keeps under threshold w, n being
// heavier than w: its own weight plus what its children keep, less what
// it detaches. While that exceeds w, n detaches its children's clusters,
// heaviest first and by NodeID on ties, appending their roots to p.roots.
// A child no heavier than w keeps its whole weight and detaches nothing,
// so shed reads its weight and does not visit it.
func (p *partitioner) shed(n navtree.NodeID, w float64) int64 {
	at := p.at
	acc := int64(at.nav.NumResults(n)) + 1
	base := len(p.kids)
	for _, c := range at.nav.Children(n) {
		if at.isRoot[c] {
			continue
		}
		p.sweepNodes++
		cw := p.weight(c)
		if float64(cw) > w {
			cw = p.shed(c, w)
		}
		p.kids = append(p.kids, kidKey(c, cw))
		acc += cw
	}
	if float64(acc) > w {
		kids := p.kids[base:]
		slices.Sort(kids)
		for _, key := range kids {
			if float64(acc) <= w {
				break
			}
			c, cw := unpackKid(key)
			p.roots = append(p.roots, c)
			acc -= cw
		}
	}
	p.kids = p.kids[:base]
	return acc
}

// heaviestChild returns the component root's child in the component whose
// subtree carries the most weight, the first in child order on ties. The
// component must have a child edge.
func (p *partitioner) heaviestChild() navtree.NodeID {
	best, bestWeight := navtree.NodeID(-1), int64(-1)
	for _, c := range p.at.nav.Children(p.root) {
		if p.at.isRoot[c] {
			continue
		}
		if w := p.weight(c); w > bestWeight {
			best, bestWeight = c, w
		}
	}
	return best
}

// assign walks the component once in pre-order, skipping the subtrees of
// other components as scan does, and hands visit each member's partition
// as runs: visit(lo, hi, q) means that the members at pre-order positions
// lo to hi-1 belong to partition q. A member's partition is that of its
// nearest partition root, the top of a stack of the partition roots whose
// subtrees the walk is in, so a run ends only where a partition root's
// subtree starts or ends or another component's starts. assign also
// records each partition's parent in p.parent.
func (p *partitioner) assign(visit func(lo, hi int32, q int)) {
	at := p.at
	np := len(p.roots)
	byPos := make([]int, np) // the partitions in the pre-order of their roots
	for i := range byPos {
		byPos[i] = i
	}
	slices.SortFunc(byPos, func(a, b int) int { return cmp.Compare(at.pos[p.roots[a]], at.pos[p.roots[b]]) })
	p.parent = make([]int, np)
	type openPart struct {
		end  int32 // the pre-order position just past the root's subtree
		part int
	}
	var stackBuf [16]openPart
	stack, next, below := stackBuf[:0], 0, p.below
	for i, end := at.pos[p.root], at.pos[p.root]+at.subtreeSize[p.root]; i < end; {
		for len(stack) > 0 && stack[len(stack)-1].end <= i {
			stack = stack[:len(stack)-1]
		}
		if len(below) > 0 && below[0] == i {
			i += at.subtreeSize[at.pre[i]]
			below = below[1:]
			continue
		}
		if next < np && at.pos[p.roots[byPos[next]]] == i {
			q := byPos[next]
			next++
			p.parent[q] = -1
			if len(stack) > 0 {
				p.parent[q] = stack[len(stack)-1].part
			}
			stack = append(stack, openPart{end: i + at.subtreeSize[p.roots[q]], part: q})
		}
		top := stack[len(stack)-1]
		stop := top.end
		if next < np {
			stop = min(stop, at.pos[p.roots[byPos[next]]])
		}
		if len(below) > 0 {
			stop = min(stop, below[0])
		}
		visit(i, stop, top.part)
		i = stop
	}
}

// compTree builds the reduced supernode tree T_R from the last split: a
// supernode's bits and score are the union and the sum (in pre-order)
// over its members, its size their count, and its parent is the
// partition holding its root's navigation parent.
func (p *partitioner) compTree() (*compTree, error) {
	at := p.at
	np := len(p.roots)
	if np > maxOptNodes {
		return nil, fmt.Errorf("core: %d partitions exceed Opt-EdgeCut limit %d", np, maxOptNodes)
	}
	ct := newCompTree(np, at.SumScores())
	back := make([]uint64, np*at.words)
	for i := range ct.Bits {
		ct.Bits[i] = bitset(back[i*at.words : (i+1)*at.words])
	}
	p.assign(func(lo, hi int32, q int) {
		b, score := ct.Bits[q], ct.Score[q]
		for _, m := range at.pre[lo:hi] {
			b.orInto(at.nodeBits(int(m)))
			score += at.scores[m]
		}
		ct.Score[q] = score
		ct.Size[q] += int(hi - lo)
	})
	for i, r := range p.roots {
		ct.Own[i] = ct.Bits[i].count()
		if i == 0 {
			ct.Parent[i] = -1
			continue
		}
		pi := p.parent[i]
		if pi >= i {
			return nil, fmt.Errorf("core: partition order violated: parent %d !< child %d", pi, i)
		}
		ct.Parent[i] = pi
		ct.Children[pi] = append(ct.Children[pi], i)
		ct.NavEdge[i] = Edge{Parent: at.nav.Parent(r), Child: r}
	}
	ct.computeDescMasks()
	return ct, nil
}
