package core

import (
	"fmt"
	"math"
	"slices"
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

	// isRoot flags the component roots, the navigation root always among
	// them. The flags are the partition: a node's component is that of its
	// nearest flagged ancestor-or-self, so an EdgeCut flags its cut
	// children and BACKTRACK unflags them, neither touching the members.
	isRoot []bool

	// comp holds the aggregates of each component, keyed by its root and
	// kept for the component roots alone: Expand sets the entries of the
	// roots it touches and Backtrack restores them, so the reads of
	// Visualize cost O(1) per visible root. A map rather than a per-node
	// array, so a session opening on a cached tree does not allocate one
	// entry per node.
	comp map[navtree.NodeID]compAgg

	undo []undoFrame // the EXPANDs BACKTRACK can undo, newest last
}

// compAgg summarizes one component: |I(r)|, |L(I(r))| and Σ s(n) over its
// members. The score sum adds the members in component pre-order, the
// order of ExploreProb's defining walk; float addition is not
// associative, so that order is part of the value, and no sum is ever
// derived by subtraction or from partial sums.
type compAgg struct {
	size  int
	count int
	score float64
}

// treeAggregates is the per-node state that depends only on the
// navigation tree: each node's citation bitset and selectivity score, the
// citation union and node count of each node's full navigation subtree,
// and the tree's pre-order layout. It is computed at most once per
// *navtree.Tree, on the first NewActiveTree over it, and never written
// afterwards, so every session on a cached tree, and every
// SolveComponents goroutine, reads one copy without locking. The one
// exception is the cut memo, which the sessions fill as they solve
// components and which its own mutex guards.
type treeAggregates struct {
	bits        []bitset  // per node: citations attached to it, as a bitset
	scores      []float64 // per node: s(n) = |res(n)| / cnt(n)
	sumScores   float64   // Σ s(n) in node order: the pX normalizer
	subtreeBits []bitset  // per node: union of bits over its navigation subtree; a leaf's is its bits
	subtreeSize []int     // per node: size of its navigation subtree

	// The navigation tree in pre-order, following each node's child order:
	// pre[pos[n]] == n, and n's subtree fills the positions from pos[n] to
	// pos[n]+subtreeSize[n]-1, which scan walks.
	pre, pos []int32
	preScore float64 // Σ s(n) in pre-order: the initial component's score sum

	memo cutMemo // solved cuts shared by the tree's sessions (cutmemo.go)
}

// undoFrame is what BACKTRACK needs to undo one EXPAND: the lower roots
// it flagged, whose flags and entries BACKTRACK drops, and the expanded
// root's aggregates, whose entry it restores.
type undoFrame struct {
	root  navtree.NodeID
	agg   compAgg
	lower []navtree.NodeID
}

// NewActiveTree converts a navigation tree into its initial active tree:
// a single component rooted at the navigation root containing every node.
// The tree's aggregates are computed by the first call for a given nav
// and shared by the later ones.
func NewActiveTree(nav *navtree.Tree) *ActiveTree {
	n := nav.Len()
	agg := nav.Aggregates(buildAggregates).(*treeAggregates)
	root := nav.Root()
	at := &ActiveTree{
		nav:            nav,
		treeAggregates: agg,
		isRoot:         make([]bool, n),
		comp: map[navtree.NodeID]compAgg{
			root: {size: n, count: agg.subtreeBits[root].count(), score: agg.preScore},
		},
	}
	at.isRoot[root] = true
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
	// Pre-order positions follow from the subtree sizes: a node's first
	// child comes right after it, and each later child after the subtree
	// of the one before.
	back := make([]int32, 2*n)
	agg.pre, agg.pos = back[:n], back[n:]
	for i := 0; i < n; i++ {
		next := agg.pos[i] + 1
		for _, c := range nav.Children(i) {
			agg.pos[c] = next
			next += int32(agg.subtreeSize[c])
		}
		agg.pre[agg.pos[i]] = int32(i)
	}
	for _, v := range agg.pre {
		agg.preScore += agg.scores[v]
	}
	return agg
}

// scan calls visit, in pre-order, on top and on each member of top's
// component that lies below it: it runs over the rest of top's range of
// the pre-order layout and skips the subtree of each component root
// there, as components are connected and nothing below another root is
// in top's. Callers that name a component root and a node must check that
// the node lies in the root's component.
func (at *ActiveTree) scan(top navtree.NodeID, visit func(navtree.NodeID)) {
	visit(top)
	end := int(at.pos[top]) + at.subtreeSize[top]
	for i := int(at.pos[top]) + 1; i < end; {
		n := navtree.NodeID(at.pre[i])
		if at.isRoot[n] {
			i += at.subtreeSize[n]
			continue
		}
		visit(n)
		i++
	}
}

// Nav returns the underlying navigation tree.
func (at *ActiveTree) Nav() *navtree.Tree { return at.nav }

// ComponentOf returns the root of the component containing node: its
// nearest ancestor-or-self that is a component root.
func (at *ActiveTree) ComponentOf(node navtree.NodeID) navtree.NodeID {
	for !at.isRoot[node] {
		node = at.nav.Parent(node)
	}
	return node
}

// IsVisible reports whether node is a component root (shown on screen).
func (at *ActiveTree) IsVisible(node navtree.NodeID) bool {
	return at.isRoot[node]
}

// VisibleRoots returns every component root in ascending node order.
func (at *ActiveTree) VisibleRoots() []navtree.NodeID {
	out := make([]navtree.NodeID, 0, len(at.comp))
	for r := range at.comp {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Members returns the nodes of the component rooted at root in pre-order
// of the component subtree, following each node's navigation child order:
// every parent precedes its children, but NodeIDs follow concept IDs, so
// the list is not in ascending node order. It is nil when root is not a
// component root.
func (at *ActiveTree) Members(root navtree.NodeID) []navtree.NodeID {
	if !at.isRoot[root] {
		return nil
	}
	out := make([]navtree.NodeID, 0, at.comp[root].size)
	at.scan(root, func(n navtree.NodeID) { out = append(out, n) })
	return out
}

// fullComponent reports whether root's component covers root's entire
// navigation subtree, enabling the precomputed-aggregate fast paths. A
// component is a connected subtree under its root, so it covers the
// subtree exactly when it is as large.
func (at *ActiveTree) fullComponent(root navtree.NodeID) bool {
	c, ok := at.comp[root]
	return ok && c.size == at.subtreeSize[root]
}

// ComponentSize reports |I(root)|, or 0 when root is not a component root.
func (at *ActiveTree) ComponentSize(root navtree.NodeID) int {
	return at.comp[root].size
}

// Distinct returns |L(I(root))|: the number of distinct citations attached
// to the component rooted at root — the count shown next to the concept in
// the interface (Definition 5). It is 0 when root is not a component root.
func (at *ActiveTree) Distinct(root navtree.NodeID) int {
	return at.comp[root].count
}

// DistinctUnder returns the number of distinct citations attached to the
// portion of root's component that lies in the subtree of n — the count a
// lower component would display if the edge above n were cut. It is 0
// when n lies outside root's component.
func (at *ActiveTree) DistinctUnder(root, n navtree.NodeID) int {
	if at.ComponentOf(n) != root {
		return 0
	}
	if at.fullComponent(root) {
		return at.subtreeBits[n].count()
	}
	u := getScratch(at.nav.DistinctTotal())
	at.scan(n, func(m navtree.NodeID) { u.orInto(at.bits[m]) })
	c := u.count()
	putScratch(u)
	return c
}

// ExploreProb returns pX(I(root)) of §IV: the sum of normalized
// selectivities of the component's members, 1 for the initial active tree
// up to rounding and 0 when root is not a component root. It reads the
// score sum Expand kept for the component, which is exact: Expand adds
// the members' scores one by one in component pre-order, the additions a
// walk of the component makes in the order it makes them, so the sum is
// bit-identical to walking and policies may compare results exactly.
func (at *ActiveTree) ExploreProb(root navtree.NodeID) float64 {
	c, ok := at.comp[root]
	if !ok || at.sumScores == 0 {
		return 0
	}
	p := c.score / at.sumScores
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

// CheckCut reports why cut is not a valid EdgeCut (Definition 3) of the
// component rooted at root, or nil if it is one: root is a component root,
// the cut is non-empty, every edge is a navigation-tree edge inside the
// component, no edge is listed twice, and no two edges lie on one
// root-to-leaf path. Expand applies only cuts that pass it.
func (at *ActiveTree) CheckCut(root navtree.NodeID, cut []Edge) error {
	if !at.isRoot[root] {
		return fmt.Errorf("core: expand: node %d is not a component root", root)
	}
	if len(cut) == 0 {
		return fmt.Errorf("core: expand: empty EdgeCut")
	}
	for _, e := range cut {
		if e.Child <= 0 || e.Child >= at.nav.Len() || at.nav.Parent(e.Child) != e.Parent {
			return fmt.Errorf("core: expand: (%d→%d) is not a navigation-tree edge", e.Parent, e.Child)
		}
		if e.Child == root || at.ComponentOf(e.Child) != root {
			return fmt.Errorf("core: expand: edge (%d→%d) not inside component %d", e.Parent, e.Child, root)
		}
	}
	// The cut is a set, else Expand would report a lower root twice, and
	// no two cut edges lie on a common root-leaf path ⇔ no cut child is an
	// ancestor of another cut child.
	for i := range cut {
		for j := range cut {
			if i == j {
				continue
			}
			if cut[i].Child == cut[j].Child {
				return fmt.Errorf("core: expand: invalid EdgeCut: edge to %d listed twice", cut[i].Child)
			}
			if at.nav.IsAncestor(cut[i].Child, cut[j].Child) {
				return fmt.Errorf("core: expand: invalid EdgeCut: %d is an ancestor of %d",
					cut[i].Child, cut[j].Child)
			}
		}
	}
	return nil
}

// Expand applies an EdgeCut to the component rooted at root. Each cut edge
// detaches the child's portion of the component as a new lower component;
// the remainder stays with root as the upper component. Expand returns the
// roots of the new lower components. It fails, changing nothing, if
// CheckCut rejects the cut.
func (at *ActiveTree) Expand(root navtree.NodeID, cut []Edge) ([]navtree.NodeID, error) {
	if err := at.CheckCut(root, cut); err != nil {
		return nil, err
	}

	f := undoFrame{root: root, agg: at.comp[root]}
	// A full component hands whole subtrees to the cut children (the cut
	// children are pairwise incomparable), so the lower components are
	// full too and their counts are their subtree unions'.
	full := at.fullComponent(root)
	u := getScratch(at.nav.DistinctTotal())
	lower := make([]navtree.NodeID, 0, len(cut))
	for _, e := range cut {
		at.comp[e.Child] = at.tally(e.Child, full, *u)
		at.isRoot[e.Child] = true
		lower = append(lower, e.Child)
	}
	// The upper component keeps the rest, in one scan after the cuts.
	at.comp[root] = at.tally(root, false, *u)
	putScratch(u)
	sort.Ints(lower)
	f.lower = slices.Clone(lower)
	at.undo = append(at.undo, f)
	return lower, nil
}

// tally returns the aggregates of top and the members of its component
// below it. The score sum adds them in pre-order. The count is the
// popcount of top's subtree union when whole is set, as the members are
// then top's entire subtree, and otherwise of the union of their bitsets,
// built in u.
func (at *ActiveTree) tally(top navtree.NodeID, whole bool, u bitset) compAgg {
	var c compAgg
	u.clear()
	at.scan(top, func(n navtree.NodeID) {
		c.size++
		c.score += at.scores[n]
		if !whole {
			u.orInto(at.bits[n])
		}
	})
	if whole {
		c.count = at.subtreeBits[top].count()
	} else {
		c.count = u.count()
	}
	return c
}

// CanBacktrack reports whether an EXPAND can be undone.
func (at *ActiveTree) CanBacktrack() bool { return len(at.undo) > 0 }

// Backtrack undoes the most recent EXPAND (the BACKTRACK action of §III).
func (at *ActiveTree) Backtrack() error {
	if len(at.undo) == 0 {
		return fmt.Errorf("core: backtrack: nothing to undo")
	}
	f := at.undo[len(at.undo)-1]
	for _, r := range f.lower {
		at.isRoot[r] = false
		delete(at.comp, r)
	}
	at.comp[f.root] = f.agg
	at.undo = at.undo[:len(at.undo)-1]
	return nil
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
	vis := make(map[navtree.NodeID]*VisibleNode, len(at.comp))
	for r, c := range at.comp {
		vis[r] = &VisibleNode{
			Node:       r,
			Label:      at.nav.Label(r),
			Count:      c.count,
			Explore:    at.ExploreProb(r),
			Expandable: c.size > 1,
			Parent:     -1,
		}
	}
	for id, v := range vis {
		if id == at.nav.Root() {
			continue
		}
		p := at.ComponentOf(at.nav.Parent(id))
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

// CheckInvariants verifies the active-tree invariants of Definition 4
// that the root flags do not hold by construction: the navigation root is
// a component root, aggregates are kept for the component roots alone,
// and each component's kept size, distinct count and score sum equal, bit
// for bit, those of a navtree.Tree.PreOrder walk pruned at the other
// component roots, independent of the pre-order scan Expand keeps them
// with. Property tests and the deep-assertion build call this after every
// operation.
func (at *ActiveTree) CheckInvariants() error {
	if !at.isRoot[at.nav.Root()] {
		return fmt.Errorf("core: navigation root %d is not a component root", at.nav.Root())
	}
	roots := 0
	u := newBitset(at.nav.DistinctTotal())
	for r, flagged := range at.isRoot {
		if !flagged {
			continue
		}
		roots++
		size, score := 0, 0.0
		u.clear()
		at.nav.PreOrder(r, func(n navtree.NodeID) bool {
			if n != r && at.isRoot[n] {
				return false
			}
			size++
			score += at.scores[n]
			u.orInto(at.bits[n])
			return true
		})
		got, ok := at.comp[r]
		if !ok || got.size != size || got.count != u.count() || math.Float64bits(got.score) != math.Float64bits(score) {
			return fmt.Errorf("core: component %d keeps size %d, count %d, score sum %v; walk finds %d, %d, %v",
				r, got.size, got.count, got.score, size, u.count(), score)
		}
	}
	if roots != len(at.comp) {
		return fmt.Errorf("core: aggregates kept for %d components, %d exist", len(at.comp), roots)
	}
	return nil
}
