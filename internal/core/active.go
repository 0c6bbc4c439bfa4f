package core

import (
	"fmt"
	"sort"

	"bionav/internal/navtree"
)

// Edge is a navigation-tree edge, identified by its endpoints. A set of
// Edges forms the EdgeCut of an EXPAND action.
type Edge struct {
	Parent navtree.NodeID
	Child  navtree.NodeID
}

// ActiveTree is the navigation tree annotated with component sets I(n)
// (Definition 4). Every node belongs to exactly one component; component
// roots are the nodes visible in the interface. The active tree is closed
// under the EdgeCut operation and supports BACKTRACK via an undo stack.
type ActiveTree struct {
	nav *navtree.Tree
	// The navigation tree's per-node aggregates, shared read-only by every
	// active tree over it (see treeAggregates).
	*treeAggregates
	compOf []navtree.NodeID // node → root of its component

	// full tracks, per component root, whether the component still covers
	// the whole navigation subtree of its root, so the subtree aggregates
	// answer Distinct/ComponentSize/DistinctUnder in O(words)/O(1). Every
	// component starts full; EXPAND passes fullness to the lower
	// components it detaches and clears it on the upper.
	full []bool // meaningful for component roots only

	undo []undoFrame // snapshots for BACKTRACK
}

// treeAggregates is the per-node state that depends only on the
// navigation tree: each node's citation bitset and selectivity score, and
// the citation union and node count of each node's full navigation
// subtree. It is computed at most once per *navtree.Tree, on the first
// NewActiveTree over it, and never written afterwards, so every session
// on a cached tree, and every SolveComponents goroutine, reads one copy
// without locking.
type treeAggregates struct {
	bits        []bitset  // per node: citations attached to it, as a bitset
	scores      []float64 // per node: s(n) = |res(n)| / cnt(n)
	sumScores   float64
	subtreeBits []bitset // per node: union of bits over its navigation subtree; a leaf's is its bits
	subtreeSize []int    // per node: size of its navigation subtree
}

type undoFrame struct {
	compOf []navtree.NodeID
	full   []bool
}

// NewActiveTree converts a navigation tree into its initial active tree:
// a single component rooted at the navigation root containing every node.
// The tree's aggregates are computed by the first call for a given nav
// and shared by the later ones.
func NewActiveTree(nav *navtree.Tree) *ActiveTree {
	n := nav.Len()
	at := &ActiveTree{
		nav:            nav,
		treeAggregates: nav.Aggregates(buildAggregates).(*treeAggregates),
		compOf:         make([]navtree.NodeID, n),
		full:           make([]bool, n),
	}
	for i := range at.compOf {
		at.compOf[i] = nav.Root()
	}
	at.full[nav.Root()] = true
	return at
}

// buildAggregates computes nav's treeAggregates; navtree.Tree.Aggregates
// runs it once per tree.
func buildAggregates(nav *navtree.Tree) any {
	n := nav.Len()
	agg := &treeAggregates{
		bits:        make([]bitset, n),
		scores:      make([]float64, n),
		subtreeBits: make([]bitset, n),
		subtreeSize: make([]int, n),
	}
	words := (nav.DistinctTotal() + 63) / 64
	inner := 0
	for i := 0; i < n; i++ {
		if len(nav.Children(i)) > 0 {
			inner++
		}
	}
	ownBack := make([]uint64, n*words)
	subBack := make([]uint64, inner*words)
	for i := 0; i < n; i++ {
		b := bitset(ownBack[i*words : (i+1)*words])
		for _, idx := range nav.ResultIndexes(i) {
			b.set(int(idx))
		}
		agg.bits[i] = b
		// A leaf's subtree is the leaf itself, so its subtree bitset is its
		// own: the sweep below ORs only into parents, and nothing writes a
		// subtree bitset after it.
		agg.subtreeBits[i] = b
		if len(nav.Children(i)) > 0 {
			sb := bitset(subBack[:words])
			subBack = subBack[words:]
			copy(sb, b)
			agg.subtreeBits[i] = sb
		}
		agg.subtreeSize[i] = 1
		if cnt := nav.GlobalCount(i); cnt > 0 {
			agg.scores[i] = float64(nav.NumResults(i)) / float64(cnt)
		}
		agg.sumScores += agg.scores[i]
	}
	// Parents precede children in ID order, so one reverse sweep ORs each
	// subtree into its parent instead of re-scanning results per ancestor.
	for i := n - 1; i >= 1; i-- {
		p := nav.Parent(i)
		agg.subtreeBits[p].orInto(agg.subtreeBits[i])
		agg.subtreeSize[p] += agg.subtreeSize[i]
	}
	return agg
}

// Nav returns the underlying navigation tree.
func (at *ActiveTree) Nav() *navtree.Tree { return at.nav }

// ComponentOf returns the root of the component containing node.
func (at *ActiveTree) ComponentOf(node navtree.NodeID) navtree.NodeID {
	return at.compOf[node]
}

// IsVisible reports whether node is a component root (shown on screen).
func (at *ActiveTree) IsVisible(node navtree.NodeID) bool {
	return at.compOf[node] == node
}

// VisibleRoots returns every component root in ascending node order.
func (at *ActiveTree) VisibleRoots() []navtree.NodeID {
	var out []navtree.NodeID
	for i, r := range at.compOf {
		if navtree.NodeID(i) == r {
			out = append(out, i)
		}
	}
	return out
}

// Members returns the nodes of the component rooted at root in pre-order
// of the component subtree, following each node's navigation child order:
// every parent precedes its children, but NodeIDs follow concept IDs, so
// the list is not in ascending node order. It exploits the component
// invariant: once a descendant belongs to a different component, its
// entire subtree does too, so the walk can prune there.
func (at *ActiveTree) Members(root navtree.NodeID) []navtree.NodeID {
	if at.compOf[root] != root {
		return nil
	}
	var out []navtree.NodeID
	at.nav.PreOrder(root, func(n navtree.NodeID) bool {
		if at.compOf[n] != root {
			return false
		}
		out = append(out, n)
		return true
	})
	return out
}

// fullComponent reports whether root's component covers root's entire
// navigation subtree, enabling the precomputed-aggregate fast paths.
func (at *ActiveTree) fullComponent(root navtree.NodeID) bool {
	return at.full[root] && at.compOf[root] == root
}

// ComponentSize reports |I(root)| without materializing the member list.
func (at *ActiveTree) ComponentSize(root navtree.NodeID) int {
	if at.fullComponent(root) {
		return at.subtreeSize[root]
	}
	n := 0
	at.nav.PreOrder(root, func(m navtree.NodeID) bool {
		if at.compOf[m] != root {
			return false
		}
		n++
		return true
	})
	return n
}

// Distinct returns |L(I(root))|: the number of distinct citations attached
// to the component rooted at root — the count shown next to the concept in
// the interface (Definition 5).
func (at *ActiveTree) Distinct(root navtree.NodeID) int {
	if at.fullComponent(root) {
		return at.subtreeBits[root].count()
	}
	u := getScratch(at.nav.DistinctTotal())
	at.nav.PreOrder(root, func(n navtree.NodeID) bool {
		if at.compOf[n] != root {
			return false
		}
		u.orInto(at.bits[n])
		return true
	})
	c := u.count()
	putScratch(u)
	return c
}

// DistinctUnder returns the number of distinct citations attached to the
// portion of root's component that lies in the subtree of n — the count a
// lower component would display if the edge above n were cut.
func (at *ActiveTree) DistinctUnder(root, n navtree.NodeID) int {
	if at.fullComponent(root) && at.compOf[n] == root {
		return at.subtreeBits[n].count()
	}
	u := getScratch(at.nav.DistinctTotal())
	at.nav.PreOrder(n, func(m navtree.NodeID) bool {
		if at.compOf[m] != root {
			return false
		}
		u.orInto(at.bits[m])
		return true
	})
	c := u.count()
	putScratch(u)
	return c
}

// ExploreProb returns pX(I(root)) of §IV: the sum of normalized
// selectivities of the component's members. For the initial active tree
// this is exactly 1. No subtree-aggregate fast path here: precomputed
// float sums would accumulate in a different order than this walk, and
// policy decisions may compare the results exactly.
func (at *ActiveTree) ExploreProb(root navtree.NodeID) float64 {
	if at.sumScores == 0 {
		return 0
	}
	s := 0.0
	at.nav.PreOrder(root, func(n navtree.NodeID) bool {
		if at.compOf[n] != root {
			return false
		}
		s += at.scores[n]
		return true
	})
	p := s / at.sumScores
	if p > 1 {
		p = 1
	}
	return p
}

// nodeScore exposes s(n) for policy construction.
func (at *ActiveTree) nodeScore(n navtree.NodeID) float64 { return at.scores[n] }

// nodeBits exposes the citation bitset of n for policy construction.
func (at *ActiveTree) nodeBits(n navtree.NodeID) bitset { return at.bits[n] }

// SumScores returns the active-tree normalizer Σ s(m).
func (at *ActiveTree) SumScores() float64 { return at.sumScores }

// Expand applies an EdgeCut to the component rooted at root. Each cut edge
// detaches the child's portion of the component as a new lower component;
// the remainder stays with root as the upper component. Expand returns the
// roots of the new lower components. It fails if the cut is invalid: an
// edge outside the component, a non-tree edge, or two edges on one
// root-to-leaf path (Definition 3).
func (at *ActiveTree) Expand(root navtree.NodeID, cut []Edge) ([]navtree.NodeID, error) {
	if at.compOf[root] != root {
		return nil, fmt.Errorf("core: expand: node %d is not a component root", root)
	}
	if len(cut) == 0 {
		return nil, fmt.Errorf("core: expand: empty EdgeCut")
	}
	for _, e := range cut {
		if e.Child <= 0 || e.Child >= at.nav.Len() || at.nav.Parent(e.Child) != e.Parent {
			return nil, fmt.Errorf("core: expand: (%d→%d) is not a navigation-tree edge", e.Parent, e.Child)
		}
		if at.compOf[e.Child] != root || e.Child == root {
			return nil, fmt.Errorf("core: expand: edge (%d→%d) not inside component %d", e.Parent, e.Child, root)
		}
	}
	// Validity (Definition 3): no two cut edges on a common root-leaf path
	// ⇔ no cut child is an ancestor of another cut child.
	for i := range cut {
		for j := range cut {
			if i != j && at.nav.IsAncestor(cut[i].Child, cut[j].Child) {
				return nil, fmt.Errorf("core: expand: invalid EdgeCut: %d is an ancestor of %d",
					cut[i].Child, cut[j].Child)
			}
		}
	}

	at.pushUndo()
	// A full component hands whole subtrees to the cut children (the cut
	// children are pairwise incomparable), so the lower components stay
	// full; the upper component loses descendants either way.
	lowerFull := at.full[root]
	lower := make([]navtree.NodeID, 0, len(cut))
	for _, e := range cut {
		at.nav.PreOrder(e.Child, func(n navtree.NodeID) bool {
			if at.compOf[n] != root {
				return false
			}
			at.compOf[n] = e.Child
			return true
		})
		at.full[e.Child] = lowerFull
		lower = append(lower, e.Child)
	}
	at.full[root] = false
	sort.Ints(lower)
	return lower, nil
}

// ExpandAll applies the static-navigation expansion: it cuts every edge
// from root to its children within the component, revealing all children —
// the behaviour of GoPubMed-style interfaces the paper compares against.
func (at *ActiveTree) ExpandAll(root navtree.NodeID) ([]navtree.NodeID, error) {
	var cut []Edge
	for _, c := range at.nav.Children(root) {
		if at.compOf[c] == root {
			cut = append(cut, Edge{Parent: root, Child: c})
		}
	}
	if len(cut) == 0 {
		return nil, fmt.Errorf("core: expand-all: component %d has no internal edges", root)
	}
	return at.Expand(root, cut)
}

// CanBacktrack reports whether an EXPAND can be undone.
func (at *ActiveTree) CanBacktrack() bool { return len(at.undo) > 0 }

// Backtrack undoes the most recent EXPAND (the BACKTRACK action of §III).
func (at *ActiveTree) Backtrack() error {
	if len(at.undo) == 0 {
		return fmt.Errorf("core: backtrack: nothing to undo")
	}
	f := at.undo[len(at.undo)-1]
	at.compOf = f.compOf
	at.full = f.full
	at.undo = at.undo[:len(at.undo)-1]
	return nil
}

func (at *ActiveTree) pushUndo() {
	f := undoFrame{
		compOf: make([]navtree.NodeID, len(at.compOf)),
		full:   make([]bool, len(at.full)),
	}
	copy(f.compOf, at.compOf)
	copy(f.full, at.full)
	at.undo = append(at.undo, f)
}

// Reset collapses the active tree back to its initial single component and
// clears the undo history.
func (at *ActiveTree) Reset() {
	for i := range at.compOf {
		at.compOf[i] = at.nav.Root()
		at.full[i] = false
	}
	at.full[at.nav.Root()] = true
	at.undo = nil
}

// VisibleNode is one row of the active-tree visualization (Definition 5).
type VisibleNode struct {
	Node       navtree.NodeID
	Label      string
	Count      int     // distinct citations in the node's component
	Explore    float64 // pX(I(n)), the ranking key
	Expandable bool    // true iff the component has more than one node
	Parent     navtree.NodeID
	Children   []navtree.NodeID // visible children, ranked
}

// Visualize returns the embedded tree the user sees: one entry per
// component root, each child list ranked by EXPLORE probability (the
// paper ranks revealed concepts by estimated relevance to the query),
// with count ties broken by label. The map is keyed by node ID; the root
// entry has Parent == -1.
func (at *ActiveTree) Visualize() map[navtree.NodeID]*VisibleNode {
	vis := make(map[navtree.NodeID]*VisibleNode)
	for _, r := range at.VisibleRoots() {
		vis[r] = &VisibleNode{
			Node:       r,
			Label:      at.nav.Label(r),
			Count:      at.Distinct(r),
			Explore:    at.ExploreProb(r),
			Expandable: at.ComponentSize(r) > 1,
			Parent:     -1,
		}
	}
	for id, v := range vis {
		if id == at.nav.Root() {
			continue
		}
		p := at.compOf[at.nav.Parent(id)]
		v.Parent = p
		vis[p].Children = append(vis[p].Children, id)
	}
	for _, v := range vis {
		children := v.Children
		sort.Slice(children, func(i, j int) bool {
			a, b := vis[children[i]], vis[children[j]]
			if a.Explore != b.Explore {
				return a.Explore > b.Explore
			}
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Label < b.Label
		})
	}
	return vis
}

// CheckInvariants verifies the active-tree invariants of Definition 4:
// components partition the node set, each component is a connected subtree
// containing its root, and every component root's parent (if any) lies in
// a different component. It also cross-checks the full-subtree fast-path
// flags against the definition they summarize. Property tests call this
// after every operation.
func (at *ActiveTree) CheckInvariants() error {
	seen := 0
	for _, r := range at.VisibleRoots() {
		m := at.Members(r)
		if len(m) == 0 || m[0] != r {
			return fmt.Errorf("core: component %d does not contain its root first: %v", r, m)
		}
		seen += len(m)
		for _, n := range m {
			if n != r && at.compOf[at.nav.Parent(n)] != r {
				return fmt.Errorf("core: component %d member %d disconnected from root", r, n)
			}
		}
		if r != at.nav.Root() && at.compOf[at.nav.Parent(r)] == r {
			return fmt.Errorf("core: component root %d's parent inside own component", r)
		}
		if at.full[r] && len(m) != at.subtreeSize[r] {
			return fmt.Errorf("core: component %d marked full but has %d of %d subtree nodes",
				r, len(m), at.subtreeSize[r])
		}
	}
	if seen != at.nav.Len() {
		return fmt.Errorf("core: components cover %d of %d nodes", seen, at.nav.Len())
	}
	return nil
}
