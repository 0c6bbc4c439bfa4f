package core

import (
	"context"
	"fmt"
	"sort"

	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// A Policy decides which EdgeCut an EXPAND action applies to a component.
// Policies are stateless with respect to the active tree: ChooseCut must
// not mutate at.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// ChooseCut returns the navigation-tree edges to cut when expanding the
	// component rooted at root. It fails on singleton components. The
	// context bounds the computation: policies running Opt-EdgeCut abort
	// with the ctx error when it is cancelled or its deadline expires, so
	// callers can cap per-EXPAND optimization time and degrade (see
	// navigate.Session.ExpandContext).
	ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error)
	// CutKey returns a comparable value holding every parameter a full
	// ChooseCut result depends on besides the navigation tree and the
	// component's member set, so sessions on one tree can share solved
	// cuts (ActiveTree.MemoKey). It returns nil when the cut depends on
	// more than that, such as per-session state; such a policy solves
	// every EXPAND itself.
	CutKey() any
}

// HeuristicReducedOpt is the paper's §VI-B expansion policy: reduce the
// component to at most K supernodes with the k-partition algorithm, run
// Opt-EdgeCut on the reduced tree, and map the optimal reduced cut back to
// navigation-tree edges. Components that already fit within K nodes are
// optimized exactly.
type HeuristicReducedOpt struct {
	K     int // reduced-tree budget; the paper uses 10
	Model CostModel
}

// NewHeuristicReducedOpt returns the policy with the paper's parameters
// (K = 10, default cost model).
func NewHeuristicReducedOpt() *HeuristicReducedOpt {
	return &HeuristicReducedOpt{K: 10, Model: DefaultCostModel()}
}

// Name implements Policy.
func (h *HeuristicReducedOpt) Name() string { return "Heuristic-ReducedOpt" }

// CutKey implements Policy: the cut depends on K and the cost model.
func (h *HeuristicReducedOpt) CutKey() any { return *h }

// ChooseCut implements Policy.
func (h *HeuristicReducedOpt) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	sp := obs.FromContext(ctx).StartChild("choose_cut")
	defer sp.End()
	sp.SetAttr("policy", h.Name())
	ct, k, err := h.reduce(sp, at, root)
	if err != nil {
		return nil, err
	}
	dpReducedNodes.Observe(float64(k))
	sp.SetAttr("reduced_nodes", k)
	cutNodes, _, err := optEdgeCut(ctx, ct, h.Model)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("cut_size", len(cutNodes))
	return mapCut(ct, cutNodes), nil
}

// ExpectedCost evaluates the expected TOPDOWN cost of exploring the
// component under the heuristic: the DP optimum of the *reduced* tree. For
// components that fit within K this equals the exact optimum; otherwise it
// is an approximation in both directions — partitioning removes cut
// options (pushing the estimate up) but also coarsens the entropy-based
// EXPAND probabilities (which can push it down).
func (h *HeuristicReducedOpt) ExpectedCost(at *ActiveTree, root navtree.NodeID) (float64, error) {
	ct, _, err := h.reduce(nil, at, root)
	if err != nil {
		return 0, err
	}
	return optExpectedCost(nil, ct, h.Model) // nil ctx: unbounded evaluation
}

// LastReducedSize reports the size of the reduced tree built for root
// without committing to a cut; used by the Fig. 11 experiment, which
// correlates per-EXPAND latency with |T_R|.
func (h *HeuristicReducedOpt) LastReducedSize(at *ActiveTree, root navtree.NodeID) (int, error) {
	_, n, err := h.reduce(nil, at, root)
	return n, err
}

// reduce builds the tree Opt-EdgeCut runs on: the component's
// k-partition's supernode tree, which is the component itself (the
// identity partition) when it fits within K nodes. It records a
// k_partition span under sp (nil: untraced) and returns the reduced
// tree's size.
func (h *HeuristicReducedOpt) reduce(sp *obs.Span, at *ActiveTree, root navtree.NodeID) (*compTree, int, error) {
	if !at.IsVisible(root) {
		return nil, 0, fmt.Errorf("core: %s: node %d is not a component root", h.Name(), root)
	}
	ksp := sp.StartChild("k_partition")
	defer ksp.End()
	n := at.ComponentSize(root)
	ksp.SetAttr("members", n)
	if n < 2 {
		return nil, 0, fmt.Errorf("core: %s: component %d has no internal edges", h.Name(), root)
	}
	p := splitComponent(at, root, max(h.K, 2))
	ksp.SetAttr("sweeps", p.sweeps)
	ksp.SetAttr("sweep_nodes", p.sweepNodes)
	ksp.SetAttr("partitions", len(p.roots))
	ct, err := p.compTree()
	return ct, len(p.roots), err
}

// OptEdgeCutPolicy runs Opt-EdgeCut directly on the component without
// reduction. Exponential: only feasible for small components, exactly as
// the paper observes (§VIII notes 30-node trees are already prohibitive).
type OptEdgeCutPolicy struct {
	Model CostModel
}

// Name implements Policy.
func (o *OptEdgeCutPolicy) Name() string { return "Opt-EdgeCut" }

// CutKey implements Policy: the cut depends on the cost model.
func (o *OptEdgeCutPolicy) CutKey() any { return *o }

// ChooseCut implements Policy.
func (o *OptEdgeCutPolicy) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	sp := obs.FromContext(ctx).StartChild("choose_cut")
	defer sp.End()
	sp.SetAttr("policy", o.Name())
	if at.ComponentSize(root) < 2 {
		return nil, fmt.Errorf("core: %s: component %d has no internal edges", o.Name(), root)
	}
	ct, err := exactCompTree(at, root)
	if err != nil {
		return nil, err
	}
	cutNodes, _, err := optEdgeCut(ctx, ct, o.Model)
	if err != nil {
		return nil, err
	}
	return mapCut(ct, cutNodes), nil
}

// ExpectedCost evaluates the optimal expected TOPDOWN cost of exploring
// the component; exposed for optimality tests and ablations.
func (o *OptEdgeCutPolicy) ExpectedCost(at *ActiveTree, root navtree.NodeID) (float64, error) {
	if !at.IsVisible(root) {
		return 0, fmt.Errorf("core: %s: node %d is not a component root", o.Name(), root)
	}
	ct, err := exactCompTree(at, root)
	if err != nil {
		return 0, err
	}
	return optExpectedCost(nil, ct, o.Model) // nil ctx: unbounded evaluation
}

// StaticAll is the static-navigation baseline (§VIII-A): every EXPAND
// reveals all children of the expanded concept, as GoPubMed and e-commerce
// facet interfaces do.
type StaticAll struct{}

// Name implements Policy.
func (StaticAll) Name() string { return "Static" }

// CutKey implements Policy: the cut has no parameters.
func (StaticAll) CutKey() any { return StaticAll{} }

// ChooseCut implements Policy.
func (StaticAll) ChooseCut(_ context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	var cut []Edge
	for _, c := range at.nav.Children(root) {
		if at.ComponentOf(c) == root {
			cut = append(cut, Edge{Parent: root, Child: c})
		}
	}
	if len(cut) == 0 {
		return nil, fmt.Errorf("core: static: component %d has no child edges", root)
	}
	return cut, nil
}

// StaticTopK reveals only the K highest-count children per EXPAND, with the
// remainder staying in the upper component (a "more…" button); footnote 2
// of the paper argues this costs about the same as StaticAll because
// repeated "more" clicks are still EXPAND actions.
type StaticTopK struct {
	K int
}

// Name implements Policy.
func (s StaticTopK) Name() string { return fmt.Sprintf("Static-Top%d", s.K) }

// CutKey implements Policy: the cut depends on K.
func (s StaticTopK) CutKey() any { return s }

// ChooseCut implements Policy.
func (s StaticTopK) ChooseCut(_ context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	type ranked struct {
		child navtree.NodeID
		count int
	}
	var kids []ranked
	for _, c := range at.nav.Children(root) {
		if at.ComponentOf(c) == root {
			kids = append(kids, ranked{c, at.DistinctUnder(root, c)})
		}
	}
	if len(kids) == 0 {
		return nil, fmt.Errorf("core: %s: component %d has no child edges", s.Name(), root)
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].count != kids[j].count {
			return kids[i].count > kids[j].count
		}
		return kids[i].child < kids[j].child
	})
	k := s.K
	if k < 1 {
		k = 1
	}
	if k > len(kids) {
		k = len(kids)
	}
	cut := make([]Edge, 0, k)
	for _, r := range kids[:k] {
		cut = append(cut, Edge{Parent: root, Child: r.child})
	}
	return cut, nil
}

// mapCut translates a reduced-tree cut (compTree node indexes) back to
// navigation-tree edges.
func mapCut(ct *compTree, cutNodes []int) []Edge {
	out := make([]Edge, 0, len(cutNodes))
	for _, v := range cutNodes {
		out = append(out, ct.NavEdge[v])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Child < out[j].Child })
	return out
}
