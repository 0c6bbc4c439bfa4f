package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

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
//
// Every state is computed once: its cost and pX go into one memo table
// keyed by the member mask alone — a state's root is its mask's lowest set
// bit, because Parent[i] < i — and every later visit is a lookup. As
// §VI-B notes, one run thereby yields the cost of every state it reached,
// which CachedHeuristic answers its follow-up EXPANDs from. The folds keep
// only the running minimum; the one argmin cut recorded is that of the
// state the user expands (cutFor). One-shot solves borrow their table from
// memoPool and return it cleared, so a solve allocates no per-state
// memory.

// stateVal is a computed state: its expected exploration cost and its
// EXPLORE probability pX, which a parent state's fold charges it with.
type stateVal struct {
	cost float64
	px   float64
}

// memoTable is an open-addressed hash table from a state's member mask to
// its stateVal. Every mask contains its root's bit and is therefore
// non-zero, freeing 0 to mark empty slots.
type memoTable struct {
	slots []memoSlot
	n     int
}

type memoSlot struct {
	mask uint64
	val  stateVal
}

// memoPool recycles the tables of one-shot solves (optEdgeCut,
// optExpectedCost). CachedHeuristic's optimizers own theirs, so a plan
// never pins a table a large one-shot solve grew.
var memoPool = sync.Pool{New: func() any { return new(memoTable) }}

func hashMask(mask uint64) uint64 {
	h := mask * 0x9e3779b97f4a7c15 // Fibonacci scrambling of the mask bits
	return h ^ (h >> 32)
}

func (t *memoTable) get(mask uint64) (stateVal, bool) {
	if t.n == 0 {
		return stateVal{}, false
	}
	m := uint64(len(t.slots) - 1)
	for i := hashMask(mask) & m; ; i = (i + 1) & m {
		switch t.slots[i].mask {
		case mask:
			return t.slots[i].val, true
		case 0:
			return stateVal{}, false
		}
	}
}

func (t *memoTable) put(mask uint64, v stateVal) {
	if len(t.slots) == 0 {
		t.slots = make([]memoSlot, 8)
	} else if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	m := uint64(len(t.slots) - 1)
	i := hashMask(mask) & m
	for t.slots[i].mask != 0 && t.slots[i].mask != mask {
		i = (i + 1) & m
	}
	if t.slots[i].mask == 0 {
		t.n++
	}
	t.slots[i] = memoSlot{mask, v}
}

func (t *memoTable) grow() {
	old := t.slots
	t.slots = make([]memoSlot, 2*len(old))
	m := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.mask == 0 {
			continue
		}
		i := hashMask(s.mask) & m
		for t.slots[i].mask != 0 {
			i = (i + 1) & m
		}
		t.slots[i] = s
	}
}

// reset empties the table, keeping its slots for the next solve.
func (t *memoTable) reset() {
	clear(t.slots)
	t.n = 0
}

type optimizer struct {
	ct    *compTree
	model CostModel
	memo  *memoTable // every computed state, keyed by its member mask
	// scratch is the |L| union buffer; entry points borrow it from the
	// shared pool for the duration of one call so long-lived optimizers
	// (CachedHeuristic plans) don't pin a buffer each between EXPANDs.
	// best assumes it is set.
	scratch *bitset
	ownBuf  []int // expandProb input; filled and consumed before recursing

	// Cancellation state, reset by each entry point (begin). The DP is the
	// only unbounded computation on the serving path, so the fold checks
	// ctx (and the faults.SiteDP failpoint) once on entry and then every
	// dpStride steps; abort sets err and the recursion unwinds without
	// touching the memo, leaving completed entries valid for reuse. ctx
	// stays nil until begin: minting a Background at construction would
	// hide a missed begin instead of failing fast.
	ctx context.Context
	err error

	// Local observability tallies, cumulative over the optimizer's life.
	// Entry points snapshot them before the search and publish the deltas
	// to the obs registry (and the request's trace span) once per call.
	steps      uint64 // fold steps; the checkpoint stride counts them too
	memoHits   uint64
	memoMisses uint64
}

// begin resets the per-call cancellation state; every entry point calls
// it, then checkpoint once so even a trivial solve observes an armed
// failpoint or an already-expired deadline.
func (o *optimizer) begin(ctx context.Context) error {
	if ctx == nil {
		//lint:ignore CTX01 nil means "no bound": the neutral ctx is the documented coercion, minted in exactly this one spot
		ctx = context.Background()
	}
	o.ctx = ctx
	o.err = nil
	return o.checkpoint()
}

// checkpoint evaluates the faults.SiteDP failpoint and the context,
// reporting the first error.
func (o *optimizer) checkpoint() error {
	if err := faults.InjectCtx(o.ctx, faults.SiteDP); err != nil {
		return err
	}
	return o.ctx.Err()
}

// stop runs a checkpoint and records its error in o.err, reporting
// whether the solve must unwind.
func (o *optimizer) stop() bool {
	if err := o.checkpoint(); err != nil {
		o.err = err
		return true
	}
	return false
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
	if sp == nil {
		return // untraced: boxing the counts for attributes would allocate
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

// newOptimizer prepares a reusable DP instance over ct with a memo of its
// own, which persists across calls: the CachedHeuristic policy answers
// subsequent expansions of the same reduced tree from it (§VI-B).
func newOptimizer(ct *compTree, model CostModel) *optimizer {
	return &optimizer{
		ct:     ct,
		model:  model,
		memo:   new(memoTable),
		ownBuf: make([]int, 0, ct.len()),
	}
}

// borrowOptimizer is newOptimizer for a one-shot solve: its memo comes
// from memoPool, and release returns it cleared.
func borrowOptimizer(ct *compTree, model CostModel) *optimizer {
	return &optimizer{
		ct:     ct,
		model:  model,
		memo:   memoPool.Get().(*memoTable),
		ownBuf: make([]int, 0, ct.len()),
	}
}

// release returns a borrowed optimizer's memo to memoPool, cleared.
func (o *optimizer) release() {
	o.memo.reset()
	memoPool.Put(o.memo)
	o.memo = nil
}

// borrowScratch takes the union buffer from the pool unless one is
// already held (nested entry points, or tests that install their own),
// and reports whether it took one; hand that report to returnScratch.
func (o *optimizer) borrowScratch() bool {
	if o.scratch != nil {
		return false
	}
	o.scratch = getScratch(64 * len(o.ct.Bits[0]))
	return true
}

// returnScratch gives the pool back the buffer borrowScratch took, if it
// took one.
func (o *optimizer) returnScratch(borrowed bool) {
	if borrowed {
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
	borrowed := o.borrowScratch()
	cost, cut := o.bestCut(r, mask)
	o.returnScratch(borrowed)
	o.finish(sp, s0)
	if o.err != nil {
		return nil, 0, o.err
	}
	if cut == nil {
		return nil, 0, fmt.Errorf("core: no valid EdgeCut exists")
	}
	return cut, cost, nil
}

// expectedCost returns the expected TOPDOWN cost of exploring the state
// (r, mask) under optimal expansion, with cutFor's abort contract.
func (o *optimizer) expectedCost(ctx context.Context, r int, mask uint64) (float64, error) {
	if err := o.begin(ctx); err != nil {
		return 0, err
	}
	s0 := o.snap()
	sp := obs.FromContext(ctx).StartChild("opt_edgecut_dp")
	borrowed := o.borrowScratch()
	v := o.best(r, mask)
	o.returnScratch(borrowed)
	o.finish(sp, s0)
	if o.err != nil {
		return 0, o.err
	}
	return v.cost, nil
}

// optEdgeCut returns the best first EdgeCut for the whole compTree (as the
// list of compTree nodes whose parent edge is cut) together with the
// expected cost of the cut-rooted navigation. The tree must have ≥ 2 nodes.
func optEdgeCut(ctx context.Context, ct *compTree, model CostModel) ([]int, float64, error) {
	if ct.len() < 2 {
		return nil, 0, fmt.Errorf("core: Opt-EdgeCut needs at least 2 nodes, got %d", ct.len())
	}
	o := borrowOptimizer(ct, model)
	defer o.release()
	return o.cutFor(ctx, 0, ct.descMask[0])
}

// optExpectedCost evaluates the full expected TOPDOWN cost of a component
// under optimal expansion; used by tests and ablations.
func optExpectedCost(ctx context.Context, ct *compTree, model CostModel) (float64, error) {
	o := borrowOptimizer(ct, model)
	defer o.release()
	return o.expectedCost(ctx, 0, ct.descMask[0])
}

// best returns the state (r, mask), computing it on its first visit and
// looking it up on every later one. An aborted computation is never
// stored, so the memo holds only complete states.
func (o *optimizer) best(r int, mask uint64) stateVal {
	if o.err != nil {
		return stateVal{}
	}
	if v, ok := o.memo.get(mask); ok {
		o.memoHits++
		return v
	}
	o.memoMisses++
	L := o.ct.distinct(mask, *o.scratch)
	own := o.ownBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		own = append(own, o.ct.Own[bits.TrailingZeros64(m)])
	}
	o.ownBuf = own[:0]
	pE := o.model.expandProb(own, L, len(own))
	val := stateVal{cost: float64(L), px: o.ct.exploreProb(mask)}
	if pE > 0 && bits.OnesCount64(mask) > 1 {
		s := cutSearch{o: o, r: r, mask: mask}
		s.run()
		if o.err != nil {
			// Aborted mid-search: the incumbent may cover only part of the
			// state space. Discard it and keep the memo untouched.
			return stateVal{}
		}
		if s.found {
			val.cost = (1-pE)*float64(L) + pE*s.bestCost
		}
	}
	o.memo.put(mask, val)
	return val
}

// bestCut returns the minimum expected cost over all valid non-empty
// EdgeCuts of the state, and the argmin cut. Returns (0, nil) if no cut
// exists (single-node component). It is the one fold that records a cut,
// in one allocation; the folds inside best keep only the minimum.
func (o *optimizer) bestCut(r int, mask uint64) (float64, []int) {
	n := bits.OnesCount64(mask)
	buf := make([]int, 0, 2*n)
	s := cutSearch{o: o, r: r, mask: mask, record: true, cur: buf[:0:n], best: buf[n:n]}
	s.run()
	if !s.found {
		return 0, nil
	}
	return s.bestCost, s.best
}

// cutSearch is the in-place child-factored fold over one state's cuts.
type cutSearch struct {
	o        *optimizer
	r        int
	mask     uint64
	bestCost float64 // the incumbent minimum, once found
	found    bool
	// With record set (bestCut), cur holds the cut nodes chosen on the
	// current branch and best the incumbent argmin cut.
	record    bool
	cur, best []int
}

func (s *cutSearch) run() {
	s.fold(s.o.ct.preIdx[s.r]+1, s.o.ct.preEnd[s.r], s.o.model.ExpandCost, 0)
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
	if s.found && sum >= s.bestCost {
		return // every remaining term is ≥ 0: this branch cannot win
	}
	if pos == end {
		if lowered == 0 {
			return // the empty cut is not a valid EdgeCut
		}
		u := o.best(s.r, s.mask&^lowered)
		cost := sum + u.cost
		if o.model.DiscountUpper {
			cost = sum + u.px*u.cost
		}
		if !s.found || cost < s.bestCost {
			s.bestCost, s.found = cost, true
			if s.record {
				s.best = append(s.best[:0], s.cur...)
			}
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
	sub := o.best(v, sv)
	if s.record {
		s.cur = append(s.cur, v)
	}
	s.fold(ct.preEnd[v], end, sum+(1+sub.px*sub.cost), lowered|sv)
	if s.record {
		s.cur = s.cur[:len(s.cur)-1]
	}
	// Retain v in the upper remainder; its children become cuttable.
	s.fold(pos+1, end, sum, lowered)
}
