package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"bionav/internal/faults"
	"bionav/internal/obs"
)

// This file implements Opt-EdgeCut (§VI-A): the exponential dynamic program
// that computes the valid EdgeCut minimizing the expected TOPDOWN
// navigation cost. Finding that cut is NP-complete (Theorem 1), so the DP
// is exponential in the (small, reduced) trees Heuristic-ReducedOpt feeds
// it — but it never materializes a cut.
//
// A state is (r, mask): the component rooted at compTree node r whose
// member set is mask (always ancestor-closed within subtree(r)). Its
// expected exploration cost is
//
//	best(r, mask) = (1 − pE)·L + pE·bestCut(r, mask)
//	bestCut(r, mask) = min over valid cuts C of
//	    K + Σ_{v∈C} (1 + pX(S_v)·best(v, S_v)) + pX(U)·best(r, U)
//
// where L = |L(mask)|, S_v = mask ∩ subtree(v), U = the upper remainder,
// and pX, pE are the §IV probability estimators. Each revealed concept
// label costs 1 (the "1 +" term); re-examining the already-visible upper
// root costs nothing.
//
// Valid cuts factor over the children of retained nodes: once the edge
// above a node is cut, no edge strictly below it may be; otherwise the
// node stays retained and each of its children poses the same binary
// choice. bestCut therefore folds that choice structure directly — walk
// the component in child-list pre-order, and at each node either cut
// (accumulate the node's 1 + pX(S_v)·best(v, S_v) term and skip its
// subtree) or retain (descend into its children) — attaching the upper
// term w(U)·best(r, U) when the walk completes, at which point U is
// exactly the set of retained nodes. The fold's leaves are in bijection
// with the valid cuts and its running sum reproduces each cut's cost
// term-for-term, so the minimum is exact; because every remaining term is
// non-negative, a branch whose running sum already reaches the incumbent
// minimum can be pruned without affecting the result. A previous
// implementation materialized every cut as a [][]int cartesian product,
// allocating exponentially many slices and aborting at a hard cut-count
// cap; the fold needs O(depth) stack, no per-cut allocation, and no cap
// (the test suite retains that enumerator as a differential oracle).

type stateVal struct {
	cost float64
	cut  []int // argmin cut children; nil when SHOWRESULTS is terminal
}

// memoTable is a small open-addressed hash table from component-member
// mask to stateVal — one per component root, so the memo key (r, mask)
// becomes a slice index plus a uint64 probe instead of a two-field map
// key. Every stored mask contains the root's bit and is therefore
// non-zero, freeing 0 to mark empty slots.
type memoTable struct {
	keys []uint64
	vals []stateVal
	n    int
}

func hashMask(mask uint64) uint64 {
	h := mask * 0x9e3779b97f4a7c15 // Fibonacci scrambling of the mask bits
	return h ^ (h >> 32)
}

func (t *memoTable) get(mask uint64) (stateVal, bool) {
	if t.n == 0 {
		return stateVal{}, false
	}
	m := uint64(len(t.keys) - 1)
	for i := hashMask(mask) & m; ; i = (i + 1) & m {
		switch t.keys[i] {
		case mask:
			return t.vals[i], true
		case 0:
			return stateVal{}, false
		}
	}
}

func (t *memoTable) put(mask uint64, v stateVal) {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, 8)
		t.vals = make([]stateVal, 8)
	} else if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	m := uint64(len(t.keys) - 1)
	i := hashMask(mask) & m
	for t.keys[i] != 0 && t.keys[i] != mask {
		i = (i + 1) & m
	}
	if t.keys[i] == 0 {
		t.n++
	}
	t.keys[i] = mask
	t.vals[i] = v
}

func (t *memoTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]stateVal, 2*len(oldKeys))
	m := uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := hashMask(k) & m
		for t.keys[i] != 0 {
			i = (i + 1) & m
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}

// budget is a solver's cancellation state: the context and failpoint it
// checks, the steps counted and the first error met. Opt-EdgeCut
// (faults.SiteDP) and PolyCut (faults.SitePolyDP) each embed one, count
// steps inline and checkpoint every dpStride or polyStride steps. ctx
// stays nil until begin: minting a Background at construction would hide
// a missed begin instead of failing fast.
type budget struct {
	ctx   context.Context
	site  string
	steps uint64
	err   error
}

// begin resets the per-call cancellation state; every entry point calls
// it, then checkpoint once so even a trivial solve observes an armed
// failpoint or an already-expired deadline.
func (b *budget) begin(ctx context.Context) error {
	if ctx == nil {
		//lint:ignore CTX01 nil means "no bound": the neutral ctx is the documented coercion, minted in exactly this one spot
		ctx = context.Background()
	}
	b.ctx = ctx
	b.err = nil
	return b.checkpoint()
}

// checkpoint evaluates the solver's failpoint and the context, reporting
// the first error.
func (b *budget) checkpoint() error {
	if err := faults.InjectCtx(b.ctx, b.site); err != nil {
		return err
	}
	return b.ctx.Err()
}

// stop runs a checkpoint and records its error in b.err, reporting
// whether the solve must unwind.
func (b *budget) stop() bool {
	if err := b.checkpoint(); err != nil {
		b.err = err
		return true
	}
	return false
}

type optimizer struct {
	ct    *compTree
	model CostModel
	memo  []memoTable // indexed by component root
	// scratch is the |L| union buffer; entry points borrow it from the
	// shared pool for the duration of one call so long-lived optimizers
	// (CachedHeuristic plans) don't pin a buffer each between EXPANDs.
	// best assumes it is set.
	scratch bitset
	ownBuf  []int // expandProb input; filled and consumed before recursing

	// Cancellation state, reset by each entry point. The DP is the only
	// unbounded computation on the serving path, so the fold checks ctx
	// (and the faults.SiteDP failpoint) once on entry and then every
	// dpStride steps; abort sets err and the recursion unwinds without
	// touching the memo, leaving completed entries valid for reuse.
	budget

	// Local observability tallies, cumulative over the optimizer's life.
	// Entry points snapshot them before the search and publish the deltas
	// to the obs registry (and the request's trace span) once per call.
	memoHits   uint64
	memoMisses uint64
}

// dpSnap is the tally snapshot an entry point takes before searching.
type dpSnap struct {
	steps, hits, misses uint64
}

func (o *optimizer) snap() dpSnap {
	return dpSnap{steps: o.steps, hits: o.memoHits, misses: o.memoMisses}
}

// finish publishes the tally deltas since s0 to the process metrics and
// annotates the search's span (nil when the request is untraced). Called
// once per entry point — the fold itself stays atomic-free.
func (o *optimizer) finish(sp *obs.Span, s0 dpSnap) {
	steps, hits, misses := o.steps-s0.steps, o.memoHits-s0.hits, o.memoMisses-s0.misses
	dpFoldSteps.Add(steps)
	dpMemoHits.Add(hits)
	dpMemoMisses.Add(misses)
	if o.err != nil {
		dpAborts.Inc()
	}
	sp.SetAttr("fold_steps", steps)
	sp.SetAttr("memo_hits", hits)
	sp.SetAttr("memo_misses", misses)
	if o.err != nil {
		sp.SetAttr("aborted", o.err.Error())
	}
	sp.End()
}

// dpStride is the fold-step interval between cancellation checkpoints; a
// power of two so the check compiles to a mask test.
const dpStride = 256

// newOptimizer prepares a reusable DP instance over ct; its memo persists
// across calls, which the CachedHeuristic policy exploits for subsequent
// expansions of the same reduced tree (§VI-B).
func newOptimizer(ct *compTree, model CostModel) *optimizer {
	return &optimizer{
		ct:     ct,
		model:  model,
		memo:   make([]memoTable, ct.len()),
		budget: budget{site: faults.SiteDP},
	}
}

// borrowScratch takes the union buffer from the pool, returning the
// release function; it is a no-op when a buffer is already held (nested
// entry points, or tests that install their own).
func (o *optimizer) borrowScratch() func() {
	if o.scratch != nil {
		return func() {}
	}
	o.scratch = getScratch(64 * len(o.ct.Bits[0]))
	return func() {
		putScratch(o.scratch)
		o.scratch = nil
	}
}

// cutFor returns the argmin cut for the component state (r, mask). The
// user has already clicked EXPAND, so the cut is unconditional (not gated
// by pE). A ctx cancellation or expired deadline aborts the search
// mid-fold and surfaces the ctx error; the memo keeps only fully
// computed states, so the optimizer remains valid for later calls.
func (o *optimizer) cutFor(ctx context.Context, r int, mask uint64) ([]int, float64, error) {
	if err := o.begin(ctx); err != nil {
		return nil, 0, err
	}
	s0 := o.snap()
	sp := obs.FromContext(ctx).StartChild("opt_edgecut_dp")
	release := o.borrowScratch()
	cost, cut := o.bestCut(r, mask)
	release()
	o.finish(sp, s0)
	if o.err != nil {
		return nil, 0, o.err
	}
	if cut == nil {
		return nil, 0, fmt.Errorf("core: no valid EdgeCut exists")
	}
	return cut, cost, nil
}

// optEdgeCut returns the best first EdgeCut for the whole compTree (as the
// list of compTree nodes whose parent edge is cut) together with the
// expected cost of the cut-rooted navigation. The tree must have ≥ 2 nodes.
func optEdgeCut(ctx context.Context, ct *compTree, model CostModel) ([]int, float64, error) {
	if ct.len() < 2 {
		return nil, 0, fmt.Errorf("core: Opt-EdgeCut needs at least 2 nodes, got %d", ct.len())
	}
	return newOptimizer(ct, model).cutFor(ctx, 0, ct.descMask[0])
}

// optExpectedCost evaluates the full expected TOPDOWN cost of a component
// under optimal expansion; used by tests and ablations.
func optExpectedCost(ctx context.Context, ct *compTree, model CostModel) (float64, error) {
	o := newOptimizer(ct, model)
	if err := o.begin(ctx); err != nil {
		return 0, err
	}
	s0 := o.snap()
	sp := obs.FromContext(ctx).StartChild("opt_edgecut_dp")
	release := o.borrowScratch()
	v := o.best(0, ct.descMask[0])
	release()
	o.finish(sp, s0)
	if o.err != nil {
		return 0, o.err
	}
	return v.cost, nil
}

func (o *optimizer) best(r int, mask uint64) stateVal {
	if o.err != nil {
		return stateVal{}
	}
	if v, ok := o.memo[r].get(mask); ok {
		o.memoHits++
		return v
	}
	o.memoMisses++
	L := o.ct.distinct(mask, o.scratch)
	own := o.ownBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		own = append(own, o.ct.Own[bits.TrailingZeros64(m)])
	}
	o.ownBuf = own[:0]
	pE := o.model.expandProb(own, L, len(own))
	val := stateVal{cost: float64(L)}
	if pE > 0 && bits.OnesCount64(mask) > 1 {
		cutCost, cut := o.bestCut(r, mask)
		if o.err != nil {
			// Aborted mid-search: the incumbent cut may cover only part of
			// the state space. Discard it and keep the memo untouched.
			return stateVal{}
		}
		if cut != nil {
			val.cost = (1-pE)*float64(L) + pE*cutCost
			val.cut = cut
		}
	}
	// Only decision-bearing states earn a memo slot. Terminal states
	// (SHOWRESULTS, cost = L) are as cheap to recompute as to look up, and
	// they form the long tail of the state space — the fold visits one per
	// cut — so skipping them keeps retained memory proportional to the
	// states CachedHeuristic can actually answer plans from.
	if val.cut != nil {
		o.memo[r].put(mask, val)
	}
	return val
}

// bestCut returns the minimum expected cost over all valid non-empty
// EdgeCuts of the state, and the argmin cut. Returns (0, nil) if no cut
// exists (single-node component).
func (o *optimizer) bestCut(r int, mask uint64) (float64, []int) {
	s := cutSearch{
		o:        o,
		r:        r,
		mask:     mask,
		bestCost: math.Inf(1),
		cur:      make([]int, 0, bits.OnesCount64(mask)),
	}
	s.fold(o.ct.preIdx[r]+1, o.ct.preEnd[r], o.model.ExpandCost, 0)
	if s.best == nil {
		return 0, nil
	}
	return s.bestCost, s.best
}

// cutSearch is the in-place child-factored fold over one state's cuts.
type cutSearch struct {
	o        *optimizer
	r        int
	mask     uint64
	bestCost float64
	best     []int // incumbent argmin cut (nil until the first leaf)
	cur      []int // cut nodes chosen on the current branch
}

// fold decides the node at pre-order position pos: cut its parent edge
// (skip its subtree) or retain it (descend). sum carries K plus the terms
// of the cuts chosen so far; lowered the members detached by them.
func (s *cutSearch) fold(pos, end int, sum float64, lowered uint64) {
	o := s.o
	if o.err != nil {
		return // aborted: unwind without extending the incumbent
	}
	if o.steps++; o.steps%dpStride == 0 && o.stop() {
		return
	}
	if s.best != nil && sum >= s.bestCost {
		return // every remaining term is ≥ 0: this branch cannot win
	}
	if pos == end {
		if len(s.cur) == 0 {
			return // the empty cut is not a valid EdgeCut
		}
		upper := s.mask &^ lowered
		w := 1.0
		if o.model.DiscountUpper {
			w = o.ct.exploreProb(upper)
		}
		cost := sum + w*o.best(s.r, upper).cost
		if s.best == nil || cost < s.bestCost {
			s.bestCost = cost
			s.best = append(s.best[:0], s.cur...)
		}
		return
	}
	ct := o.ct
	v := ct.pre[pos]
	if s.mask&(1<<uint(v)) == 0 {
		// mask is ancestor-closed: v's whole subtree lies outside the state.
		s.fold(ct.preEnd[v], end, sum, lowered)
		return
	}
	// Cut the edge above v: its subtree detaches as a lower component,
	// charging one revealed label plus the discounted descent. The term is
	// parenthesized so it rounds exactly like the historical `cost += 1 + …`
	// accumulation the differential test compares against.
	sv := ct.descMask[v] & s.mask
	s.cur = append(s.cur, v)
	s.fold(ct.preEnd[v], end, sum+(1+ct.exploreProb(sv)*o.best(v, sv).cost), lowered|sv)
	s.cur = s.cur[:len(s.cur)-1]
	// Retain v in the upper remainder; its children become cuttable.
	s.fold(pos+1, end, sum, lowered)
}
