package core

import (
	"context"
	"fmt"
	"math/bits"

	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// CachedHeuristic implements the §VI-B remark: "once Opt-EdgeCut is
// executed for T, the costs (and optimal EdgeCuts) for all possible I'(n)s
// are also computed and hence there is no need to call the algorithm again
// for subsequent expansions." The first EXPAND of a component reduces and
// optimizes it exactly like HeuristicReducedOpt; later EXPANDs of the
// components that cut created are answered straight from the retained DP
// memo, skipping both the k-partition and the cut enumeration.
//
// The trade-off (also implicit in the paper): cached follow-up cuts can
// only sever the original partition boundaries, so deep expansions are
// coarser than a fresh re-partition would allow. The model-variant
// ablation quantifies the cost difference; the Fig. 10-style win is that
// cached expansions cost microseconds.
//
// A CachedHeuristic is bound to one navigation session: it tracks the
// components its own cuts created. Foreign mutations of the active tree
// (another policy's cuts, BACKTRACK) are detected via component-size
// validation and simply fall back to a fresh computation.
type CachedHeuristic struct {
	K     int
	Model CostModel

	plans map[navtree.NodeID]*plan
	// Recomputes counts fresh reduce+optimize runs; tests and benchmarks
	// read it to verify cache effectiveness.
	Recomputes int
}

// plan is the retained state for components carved out of one reduced tree.
type plan struct {
	at      *ActiveTree // the tree the plan was computed for (identity check)
	ct      *compTree
	opt     *optimizer
	idx     int    // this component's root supernode index in ct
	mask    uint64 // this component's supernode set
	navSize int    // expected navigation-node count (staleness check)
}

// NewCachedHeuristic returns the caching policy with the paper's defaults.
func NewCachedHeuristic() *CachedHeuristic {
	return &CachedHeuristic{K: 10, Model: DefaultCostModel()}
}

// Name implements Policy.
func (h *CachedHeuristic) Name() string { return "Heuristic-ReducedOpt (cached)" }

// CutKey implements Policy. It is nil: a follow-up cut comes from this
// session's own plans, which are the §VI-B cut cache, so sessions under
// this policy neither share cuts nor take them from the tree's memo.
func (h *CachedHeuristic) CutKey() any { return nil }

// ChooseCut implements Policy.
func (h *CachedHeuristic) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	if h.plans == nil {
		h.plans = make(map[navtree.NodeID]*plan)
	}
	sp := obs.FromContext(ctx).StartChild("choose_cut")
	defer sp.End()
	sp.SetAttr("policy", h.Name())
	if p, ok := h.plans[root]; ok {
		// Node IDs repeat across navigation trees, so a plan is only valid
		// for the exact active tree it was computed on, and only while the
		// component still has the size the plan's cut produced.
		if p.at == at && p.navSize == at.ComponentSize(root) {
			sp.SetAttr("cached_plan", true)
			return h.cutFromPlan(ctx, p, root)
		}
		delete(h.plans, root) // stale: the tree changed under us
	}
	sp.SetAttr("cached_plan", false)
	return h.freshCut(ctx, sp, at, root)
}

// freshCut mirrors HeuristicReducedOpt and records the plan. A ctx abort
// propagates before any plan is registered, so a degraded EXPAND leaves
// the cache exactly as it was.
func (h *CachedHeuristic) freshCut(ctx context.Context, sp *obs.Span, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	h.Recomputes++
	inner := &HeuristicReducedOpt{K: h.K, Model: h.Model}
	ct, k, err := inner.reduce(sp, at, root)
	if err != nil {
		return nil, err
	}
	dpReducedNodes.Observe(float64(k))
	opt := newOptimizer(ct, h.Model)
	cutNodes, _, err := opt.cutFor(ctx, 0, ct.descMask[0])
	if err != nil {
		return nil, err
	}
	p := &plan{at: at, ct: ct, opt: opt, idx: 0, mask: ct.descMask[0], navSize: at.ComponentSize(root)}
	h.registerChildren(p, root, cutNodes)
	return mapCut(ct, cutNodes), nil
}

// cutFromPlan answers an EXPAND from the retained DP memo. On a ctx
// abort the plan stays registered: the answer was not consumed, and a
// later mutation of the component (e.g. a degraded static cut) is caught
// by the navSize staleness check.
func (h *CachedHeuristic) cutFromPlan(ctx context.Context, p *plan, root navtree.NodeID) ([]Edge, error) {
	cutNodes, _, err := p.opt.cutFor(ctx, p.idx, p.mask)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, err // aborted, not exhausted: surface the ctx error
		}
		// Single-supernode component: the reduced tree cannot split it
		// further even though real navigation nodes remain. Fall back is
		// impossible here without the active tree, so report clearly.
		return nil, fmt.Errorf("core: %s: component %d exhausted its cached plan: %w", h.Name(), root, err)
	}
	delete(h.plans, root)
	h.registerChildren(p, root, cutNodes)
	return mapCut(p.ct, cutNodes), nil
}

// registerChildren records plans for the components the cut creates: each
// lower component keeps the subtree of its cut supernode; the upper keeps
// the remainder under the same root.
func (h *CachedHeuristic) registerChildren(p *plan, root navtree.NodeID, cutNodes []int) {
	var lowered uint64
	for _, c := range cutNodes {
		sub := p.ct.descMask[c] & p.mask
		lowered |= sub
		if bits.OnesCount64(sub) < 2 {
			continue // singleton supernode: no further reduced cut exists
		}
		h.plans[p.ct.NavEdge[c].Child] = &plan{
			at: p.at, ct: p.ct, opt: p.opt, idx: c, mask: sub,
			navSize: maskNavSize(p, sub),
		}
	}
	upper := p.mask &^ lowered
	if bits.OnesCount64(upper) >= 2 {
		h.plans[root] = &plan{
			at: p.at, ct: p.ct, opt: p.opt, idx: p.idx, mask: upper,
			navSize: maskNavSize(p, upper),
		}
	}
}

// maskNavSize sums the navigation-node counts of the supernodes in mask.
func maskNavSize(p *plan, mask uint64) int {
	n := 0
	for i := 0; i < p.ct.len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			n += p.ct.Size[i]
		}
	}
	return n
}
