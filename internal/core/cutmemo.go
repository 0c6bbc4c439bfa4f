package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// The cut memo shares solved EdgeCuts across every session on one
// navigation tree. §VI-B observes that one Opt-EdgeCut solve also answers
// later expansions of the same component; users of a popular query share
// its cached tree and keep expanding the same components, so one memo per
// tree answers most of their EXPANDs without a k-partition or a DP.
//
// A policy's cut is a function of three things: the navigation tree (the
// memo lives with it), the policy's parameters (Policy.CutKey) and the
// component's member set. The component is pinned exactly by its root
// and the roots of the components directly below it: its members are the
// root's navigation subtree minus the subtrees of those roots. The memo
// holds only what the policy would return for that key, so callers store
// the cuts of completed solves alone, never a degraded static-fallback
// or a replayed cut.

// cutMemoBound caps the entries of one tree's memo; reaching it clears the
// memo. An entry takes 200 to 400 bytes, and the trees sessions share come
// from the nav-tree cache, whose capacity bounds their number
// (docs/COSTMODEL.md has the figures).
const cutMemoBound = 1024

var memoEvictions = obs.Default.Counter("bionav_solver_cache_evictions_total",
	"Cut-memo entries dropped because their tree's memo reached its entry bound.")

// MemoKey names one component under one policy in its navigation tree's
// cut memo. Build it with ActiveTree.MemoKey before the EXPAND it serves:
// the EXPAND changes the component.
type MemoKey struct {
	policy any    // Policy.CutKey
	comp   string // the root, then the sorted roots directly below it, 4 bytes each
}

// cutMemo is one tree's memo, kept with its treeAggregates.
type cutMemo struct {
	mu   sync.Mutex
	cuts map[MemoKey][]Edge // guarded by mu
}

// MemoKey returns the memo key of root's component under p. It reports
// false when p.CutKey is nil, as p's cut then depends on more than the
// component, and when root is not a component root.
func (at *ActiveTree) MemoKey(p Policy, root navtree.NodeID) (MemoKey, bool) {
	pk := p.CutKey()
	if pk == nil || !at.isRoot[root] {
		return MemoKey{}, false
	}
	// Typical keys fit the stack buffers, leaving the key string as the
	// one allocation.
	var belowBuf [16]int32
	below := at.rootsBelow(root, belowBuf[:0])
	var keyBuf [68]byte
	b := binary.LittleEndian.AppendUint32(keyBuf[:0], uint32(root))
	for _, r := range below {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	return MemoKey{policy: pk, comp: string(b)}, true
}

// rootsBelow returns, in buf and in ascending order, the roots of the
// components directly below root's: the component roots whose navigation
// parent lies in root's component. Root's navigation subtree holds its
// members and, beyond them, exactly these roots' subtrees. The visible
// roots are few, so reading them all is cheaper than scanning the
// component for its boundary.
func (at *ActiveTree) rootsBelow(root navtree.NodeID, buf []int32) []int32 {
	for r := range at.comp {
		if r != root && r != at.nav.Root() && at.ComponentOf(at.nav.Parent(r)) == root {
			buf = append(buf, int32(r))
		}
	}
	slices.Sort(buf)
	return buf
}

// MemoCut returns the cut memoized under k. The cut is shared: callers
// must not modify it.
func (at *ActiveTree) MemoCut(k MemoKey) ([]Edge, bool) {
	m := &at.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	cut, ok := m.cuts[k]
	return cut, ok
}

// Memoize stores a copy of cut under k. The cut must be the result of a
// completed ChooseCut over the component k was built for.
func (at *ActiveTree) Memoize(k MemoKey, cut []Edge) {
	cut = slices.Clone(cut)
	m := &at.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cuts[k]; !ok && len(m.cuts) >= cutMemoBound {
		memoEvictions.Add(uint64(len(m.cuts)))
		m.cuts = nil
	}
	if m.cuts == nil {
		m.cuts = make(map[MemoKey][]Edge)
	}
	m.cuts[k] = cut
}

// Forget drops k's entry: a memoized cut that fails to apply goes, and the
// component is solved again.
func (at *ActiveTree) Forget(k MemoKey) {
	m := &at.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cuts, k)
}
