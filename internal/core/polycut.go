package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bionav/internal/faults"
	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// This file implements PolyCut (docs/COSTMODEL.md §7): a polynomial
// k-bounded tree-summarization DP that chooses EdgeCuts directly on the
// active tree — no compTree, no 64-bit member mask, no maxOptNodes cap —
// wrapped in an anytime driver that always has a valid cut in hand.
//
// Opt-EdgeCut's state is (root, member-mask) because the upper remainder
// left by a cut is itself recursively expandable; that coupling is what
// makes the exact problem NP-complete (Theorem 1) and the DP exponential.
// PolyCut restores polynomial time with one modeling concession: the
// upper remainder is scored terminally (its continuation is SHOWRESULTS,
// cost |L(U)|), the reading under which the objective becomes additive
// over the cut:
//
//	cost(C) = K + L(r) + Σ_{v∈C} gain(v)
//	gain(v) = 1 + pX(v)·best(v) − lost(v)
//
// where lost(v) counts the citations exclusive to subtree(v) within the
// component (they leave the upper's L when v is cut away) and best(v) is
// the recursive expected exploration cost of the detached component:
//
//	best(v) = (1 − pE(v))·L(v) + pE(v)·(K + L(v) + min nonempty Σ gain)
//
// Minimizing Σ gain(v) over valid EdgeCuts of at most k edges is a tree
// knapsack over antichains, solved bottom-up in O(n·k²): for every node,
// nea[v][j] is the minimum gain-sum over nonempty antichains of ≤ j cut
// edges inside subtree(v) (v's own edge included as a candidate), built
// by the classic grouped-knapsack merge of the children's tables.
//
// The anytime driver makes the solve interruption-tolerant: the
// incumbent starts as the static all-children cut, then iterative
// deepening re-runs the DP with the cut-candidate horizon doubling
// (d = 1, 2, 4, …, depth) — so each round is a complete solve of a
// shallower problem and the doubling bounds total work at ~2× the final
// round. A ctx deadline or armed faults.SitePolyDP aborts between
// checkpoints and the driver returns the best cut found so far with a
// CutGrade recording how far it got: GradeFull (all rounds), GradeAnytime
// (≥ 1 round), GradeStatic (nothing beyond the seed).

// polyStride is the DP-node interval between cancellation checkpoints
// inside a deepening round; a power of two so the check is a mask test.
const polyStride = 64

// AnytimeResult reports one PolyCut solve: the cut, how complete the
// search that produced it was, and the surrogate costs that let callers
// and benchmarks compare the anytime cut against its static seed.
type AnytimeResult struct {
	Cut    []Edge
	Grade  CutGrade
	Reason string // the ctx/fault error that stopped the search; "" when full

	// Cost is the incumbent's surrogate expected cost and StaticCost the
	// static all-children seed's, both evaluated under the deepest
	// completed horizon. Cost ≤ StaticCost always: the seed remains a
	// standing candidate every round, so the incumbent is never worse.
	Cost       float64
	StaticCost float64

	Rounds       int // deepening rounds completed
	Improvements int // rounds whose candidate displaced the incumbent
}

// polySolver carries one component's PolyCut state. It is built per
// solve; sessions avoid rebuilding it for a component already solved on
// their tree by sharing the resulting cut, not the solver (see
// ActiveTree.MemoKey).
type polySolver struct {
	at    *ActiveTree
	root  navtree.NodeID
	model CostModel
	k     int

	// Member tree, in slot space: members[i] is the nav node of slot i,
	// slot 0 the component root. Members() yields a DFS pre-order of the
	// component, so slot order is itself a pre-order with contiguous
	// subtrees: subtree(v) = slots [v, preEnd[v]).
	members  []navtree.NodeID
	parent   []int
	kids     [][]int
	depth    []int
	maxDepth int
	preEnd   []int

	// Per-slot subtree aggregates, one bottom-up sweep each.
	size      []int     // member count
	L         []int     // distinct citations
	own       []int     // citations attached directly at the member
	score     []float64 // Σ s(m), the pX numerator
	ownSum    []int64   // Σ own (entropy aggregate)
	ownLogSum []float64 // Σ own·ln(own) (entropy aggregate)
	nz        []int     // members with own > 0
	lost      []int     // citations exclusive to the subtree in the component

	// Round state, overwritten by each deepening round for every slot
	// within the horizon.
	best []float64   // continuation cost under the current horizon
	gain []float64   // 1 + pX·best − lost
	nea  [][]float64 // nea[v][j]: min gain-sum, nonempty antichain, ≤ j cuts

	mAny, mNe []float64 // grouped-knapsack merge buffers, len k+1
	markBuf   []bool    // evalCut cut-subtree marks, len n

	// Cancellation state, mirroring optedgecut's optimizer.
	ctx   context.Context
	steps uint64
	err   error
}

func newPolySolver(at *ActiveTree, root navtree.NodeID, k int, model CostModel) *polySolver {
	// ctx stays nil until begin, for the same fail-fast reason as
	// newOptimizer: a missed begin must not silently run unbounded.
	return &polySolver{at: at, root: root, k: k, model: model}
}

func (s *polySolver) begin(ctx context.Context) error {
	if ctx == nil {
		//lint:ignore CTX01 nil means "no bound": the neutral ctx is the documented coercion, minted in exactly this one spot
		ctx = context.Background()
	}
	s.ctx = ctx
	s.err = nil
	return s.checkpoint()
}

// checkpoint evaluates the PolyCut failpoint and the context; the caller
// records the first error in s.err and unwinds to the anytime driver.
func (s *polySolver) checkpoint() error {
	if err := faults.InjectCtx(s.ctx, faults.SitePolyDP); err != nil {
		return err
	}
	return s.ctx.Err()
}

// tick is the strided checkpoint used inside loops.
func (s *polySolver) tick() error {
	if s.steps++; s.steps%polyStride == 0 {
		if err := s.checkpoint(); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// buildStats materializes the member tree and every per-subtree
// aggregate the DP reads: O(n·words) for the citation unions (skipped
// entirely when the component is full and the active tree's precomputed
// subtree bitsets apply), O(occurrences + citations·depth) for the
// exclusive-citation counts via per-citation LCAs, O(n) for the rest.
func (s *polySolver) buildStats() error {
	at, nav := s.at, s.at.nav
	members := at.Members(s.root)
	n := len(members)
	s.members = members
	s.parent = make([]int, n)
	s.kids = make([][]int, n)
	s.depth = make([]int, n)
	s.preEnd = make([]int, n)
	s.size = make([]int, n)
	s.L = make([]int, n)
	s.own = make([]int, n)
	s.score = make([]float64, n)
	s.ownSum = make([]int64, n)
	s.ownLogSum = make([]float64, n)
	s.nz = make([]int, n)
	s.lost = make([]int, n)
	s.best = make([]float64, n)
	s.gain = make([]float64, n)
	neaBack := make([]float64, n*(s.k+1))
	s.nea = make([][]float64, n)
	for i := 0; i < n; i++ {
		s.nea[i] = neaBack[i*(s.k+1) : (i+1)*(s.k+1)]
	}
	s.mAny = make([]float64, s.k+1)
	s.mNe = make([]float64, s.k+1)
	s.markBuf = make([]bool, n)

	// Parent slots: Members() is a pre-order, so every parent appears
	// before its children and a map resolves each parent's slot.
	slot := make(map[navtree.NodeID]int, n)
	for i, m := range members {
		slot[m] = i
	}
	s.parent[0] = -1
	for i := 1; i < n; i++ {
		p := slot[nav.Parent(members[i])]
		s.parent[i] = p
		s.kids[p] = append(s.kids[p], i)
		s.depth[i] = s.depth[p] + 1
		if s.depth[i] > s.maxDepth {
			s.maxDepth = s.depth[i]
		}
		if err := s.tick(); err != nil {
			return err
		}
	}

	// Subtree extents: pre-order contiguity means subtree(v) is the slot
	// range [v, preEnd[v]) — the span the LCA climbs and the evalCut
	// skip-walk rely on.
	for i := 0; i < n; i++ {
		s.preEnd[i] = i + 1
	}
	for i := n - 1; i >= 1; i-- {
		if p := s.parent[i]; s.preEnd[i] > s.preEnd[p] {
			s.preEnd[p] = s.preEnd[i]
		}
	}

	for i := 0; i < n; i++ {
		o := at.bits[members[i]].count()
		s.own[i] = o
		s.size[i] = 1
		s.score[i] = at.scores[members[i]]
		s.ownSum[i] = int64(o)
		if o > 0 {
			s.ownLogSum[i] = float64(o) * math.Log(float64(o))
			s.nz[i] = 1
		}
	}
	for i := n - 1; i >= 1; i-- {
		p := s.parent[i]
		s.size[p] += s.size[i]
		s.score[p] += s.score[i]
		s.ownSum[p] += s.ownSum[i]
		s.ownLogSum[p] += s.ownLogSum[i]
		s.nz[p] += s.nz[i]
	}

	if at.fullComponent(s.root) {
		// Full component: member subtrees are whole navigation subtrees,
		// so the active tree's precomputed unions answer L directly.
		for i := 0; i < n; i++ {
			s.L[i] = at.subtreeBits[members[i]].count()
		}
	} else {
		words := (nav.DistinctTotal() + 63) / 64
		back := make([]uint64, n*words)
		subs := make([]bitset, n)
		for i := 0; i < n; i++ {
			subs[i] = bitset(back[i*words : (i+1)*words])
			copy(subs[i], at.bits[members[i]])
		}
		for i := n - 1; i >= 1; i-- {
			subs[s.parent[i]].orInto(subs[i])
			if err := s.tick(); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			s.L[i] = subs[i].count()
		}
	}

	// lost[v]: citations whose every in-component occurrence lies in
	// subtree(v). A citation is exclusive to exactly the subtrees rooted
	// on the root-path of its occurrences' LCA, and the LCA of a node set
	// is the LCA of its min- and max-pre-order elements — found by a
	// parent climb, then summed bottom-up.
	first := make([]int32, nav.DistinctTotal())
	last := make([]int32, nav.DistinctTotal())
	for i := range first {
		first[i] = -1
	}
	var touched []int32
	for p := 0; p < n; p++ {
		for _, idx := range nav.ResultIndexes(members[p]) {
			if first[idx] < 0 {
				first[idx] = int32(p)
				touched = append(touched, idx)
			}
			last[idx] = int32(p)
		}
		if err := s.tick(); err != nil {
			return err
		}
	}
	lca := make([]int, n)
	for _, idx := range touched {
		a := int(first[idx])
		lp := int(last[idx])
		for s.preEnd[a] <= lp {
			a = s.parent[a]
		}
		lca[a]++
		if err := s.tick(); err != nil {
			return err
		}
	}
	copy(s.lost, lca)
	for i := n - 1; i >= 1; i-- {
		s.lost[s.parent[i]] += s.lost[i]
	}

	if err := s.checkpoint(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// pX is the EXPLORE probability of the (would-be) component under slot v.
func (s *polySolver) pX(v int) float64 {
	if s.at.sumScores == 0 {
		return 0
	}
	p := s.score[v] / s.at.sumScores
	if p > 1 {
		p = 1
	}
	return p
}

// expandProbAt is CostModel.expandProb restated over the precomputed
// subtree aggregates: with S1 = Σ own and Slog = Σ own·ln(own), the
// citation-distribution entropy is (S1·ln L − Slog)/L — algebraically
// identical to the per-part sum, computed in O(1) per node.
func (s *polySolver) expandProbAt(v int) float64 {
	m := s.model
	L := s.L[v]
	if s.size[v] <= 1 || L == 0 {
		return 0
	}
	if L > m.Thi {
		return 1
	}
	if L < m.Tlo {
		return 0
	}
	if !m.UseEntropy {
		if 2*L >= m.Thi+m.Tlo {
			return 1
		}
		return 0
	}
	if s.nz[v] <= 1 {
		return 0
	}
	lf := float64(L)
	h := (float64(s.ownSum[v])*math.Log(lf) - s.ownLogSum[v]) / lf
	pe := h / math.Log(float64(s.nz[v]))
	if pe > 1 {
		pe = 1
	}
	if pe < 0 {
		pe = 0
	}
	return pe
}

// foldChild merges one child's antichain table into the running prefix
// tables, in place: anyArr[j] is the min gain-sum over antichains of ≤ j
// cuts among the children folded so far with the empty pick allowed (so
// anyArr[j] ≤ 0), neArr[j] the same requiring at least one cut. The
// descending-j walk is the classic grouped knapsack: slots below j still
// hold the pre-child values when j is updated. Reconstruction re-runs
// this exact fold, so equal-cost choices resolve identically.
func foldChild(anyArr, neArr, cn []float64, k int) {
	for j := k; j >= 1; j-- {
		bestAny, bestNe := anyArr[j], neArr[j]
		for b := 1; b <= j; b++ {
			a := j - b
			ac := cn[b]
			if ac > 0 {
				ac = 0 // the child may also contribute nothing
			}
			if v := anyArr[a] + ac; v < bestAny {
				bestAny = v
			}
			if v := neArr[a] + ac; v < bestNe {
				bestNe = v
			}
			if v := anyArr[a] + cn[b]; v < bestNe {
				bestNe = v
			}
		}
		anyArr[j], neArr[j] = bestAny, bestNe
	}
}

// foldAll computes v's children merge into the shared buffers.
func (s *polySolver) foldAll(v int) {
	inf := math.Inf(1)
	for j := 0; j <= s.k; j++ {
		s.mAny[j], s.mNe[j] = 0, inf
	}
	for _, c := range s.kids[v] {
		foldChild(s.mAny, s.mNe, s.nea[c], s.k)
	}
}

// computeRound runs one deepening round with cut-candidate horizon d:
// every slot at depth ≤ d gets fresh best/gain/nea values, with slots at
// exactly depth d scored terminally (best = L, no cuts below). Reverse
// DFS order visits children before parents. O(n·k²) per round.
func (s *polySolver) computeRound(d int) error {
	for v := len(s.members) - 1; v >= 0; v-- {
		if s.depth[v] > d {
			continue
		}
		if err := s.tick(); err != nil {
			return err
		}
		L := float64(s.L[v])
		interior := s.depth[v] < d && s.size[v] > 1
		bestV := L
		if interior {
			s.foldAll(v)
			if pE := s.expandProbAt(v); pE > 0 && !math.IsInf(s.mNe[s.k], 1) {
				// The cut is unconditional once the user expands, exactly
				// as in the exponential DP's recurrence.
				bestV = (1-pE)*L + pE*(s.model.ExpandCost+L+s.mNe[s.k])
			}
		}
		s.best[v] = bestV
		g := 1 + s.pX(v)*bestV - float64(s.lost[v])
		s.gain[v] = g
		nv := s.nea[v]
		nv[0] = math.Inf(1)
		for j := 1; j <= s.k; j++ {
			x := g
			if interior && s.mNe[j] < x {
				x = s.mNe[j]
			}
			nv[j] = x
		}
	}
	return nil
}

// mergeWithHist repeats v's children merge, snapshotting the prefix
// tables after each child for the reconstruction walk. It performs the
// same folds in the same order as computeRound, so every value matches
// bit-for-bit.
func (s *polySolver) mergeWithHist(v int) (anyH, neH [][]float64) {
	kids := s.kids[v]
	anyH = make([][]float64, len(kids)+1)
	neH = make([][]float64, len(kids)+1)
	cur := make([]float64, s.k+1)
	curNe := make([]float64, s.k+1)
	inf := math.Inf(1)
	for j := 0; j <= s.k; j++ {
		cur[j], curNe[j] = 0, inf
	}
	snap := func(i int) {
		anyH[i] = append([]float64(nil), cur...)
		neH[i] = append([]float64(nil), curNe...)
	}
	snap(0)
	for i, c := range kids {
		foldChild(cur, curNe, s.nea[c], s.k)
		snap(i + 1)
	}
	return anyH, neH
}

// emitChild resolves one child's nonempty contribution of budget b:
// either the child's own edge is cut (preferred on ties — shallower,
// smaller cuts) or the antichain continues strictly below it.
func (s *polySolver) emitChild(c, b int, out *[]int) {
	if s.nea[c][b] == s.gain[c] {
		*out = append(*out, c)
		return
	}
	s.walkCut(c, b, out)
}

// walkCut reconstructs the argmin nonempty antichain of budget j below v
// by unwinding the children merge right-to-left: at each child the walk
// finds which (prefix, child-budget) split reproduces the folded value —
// one always matches exactly because mergeWithHist reruns the identical
// arithmetic — preferring the child-empty split, then child-possibly-
// empty, then prefix-empty, mirroring the fold's evaluation order.
func (s *polySolver) walkCut(v, j int, out *[]int) {
	kids := s.kids[v]
	anyH, neH := s.mergeWithHist(v)
	needNe := true
	for i := len(kids); i >= 1; i-- {
		c := kids[i-1]
		cn := s.nea[c]
		var val float64
		if needNe {
			val = neH[i][j]
		} else {
			val = anyH[i][j]
		}
		if needNe && neH[i-1][j] == val {
			continue // the earlier children already realize val nonempty
		}
		if !needNe && anyH[i-1][j] == val {
			continue
		}
		matched := false
		for b := 1; b <= j && !matched; b++ {
			a := j - b
			ac := cn[b]
			if ac > 0 {
				ac = 0
			}
			if needNe {
				if neH[i-1][a]+ac == val {
					if ac < 0 {
						s.emitChild(c, b, out)
					}
					j, matched = a, true
				} else if anyH[i-1][a]+cn[b] == val {
					s.emitChild(c, b, out)
					j, needNe, matched = a, false, true
				}
			} else if anyH[i-1][a]+ac == val {
				if ac < 0 {
					s.emitChild(c, b, out)
				}
				j, matched = a, true
			}
		}
		if !matched {
			return // unreachable: the fold's minimum is one of these sums
		}
	}
}

// evalCut scores a candidate cut of slot nodes under the current round's
// continuation values: K + Σ_{v∈cut}(1 + pX(v)·best(v)) + w·|L(U)|, with
// L(U) the exact distinct count of the retained members (no lost()
// approximation here — candidates from different rounds and the static
// seed are compared on the exact upper term). DiscountUpper weights the
// upper term by its EXPLORE probability, as in the exponential DP.
func (s *polySolver) evalCut(cut []int) float64 {
	cost := s.model.ExpandCost
	for _, v := range cut {
		cost += 1 + s.pX(v)*s.best[v]
		s.markBuf[v] = true
	}
	u := getScratch(s.at.nav.DistinctTotal())
	retained := 0.0
	n := len(s.members)
	for v := 0; v < n; {
		if s.markBuf[v] {
			v = s.preEnd[v]
			continue
		}
		u.orInto(s.at.bits[s.members[v]])
		retained += s.at.scores[s.members[v]]
		v++
	}
	lu := float64(u.count())
	putScratch(u)
	w := 1.0
	if s.model.DiscountUpper {
		w = 0
		if s.at.sumScores > 0 {
			if w = retained / s.at.sumScores; w > 1 {
				w = 1
			}
		}
	}
	cost += w * lu
	for _, v := range cut {
		s.markBuf[v] = false
	}
	return cost
}

// schedule returns the deepening horizons: powers of two up to the
// member-tree depth, ending in the exact depth (the full-information
// round). Doubling bounds the total DP work at ~2× the final round.
func (s *polySolver) schedule() []int {
	var ds []int
	for d := 1; d < s.maxDepth; d *= 2 {
		ds = append(ds, d)
	}
	return append(ds, s.maxDepth)
}

// staticCutRaw builds the all-children seed straight from the active
// tree; it needs no solver state, so even a solve aborted before
// buildStats returns a valid cut.
func (s *polySolver) staticCutRaw() []Edge {
	var cut []Edge
	for _, c := range s.at.nav.Children(s.root) {
		if s.at.ComponentOf(c) == s.root {
			cut = append(cut, Edge{Parent: s.root, Child: c})
		}
	}
	return cut
}

// slotsToEdges maps cut slots to edges, sorted by child nav-ID — slot
// order is pre-order, not ID order, so the edges are sorted after the
// mapping to match the other policies' cut convention.
func (s *polySolver) slotsToEdges(slots []int) []Edge {
	out := make([]Edge, 0, len(slots))
	for _, v := range slots {
		m := s.members[v]
		out = append(out, Edge{Parent: s.at.nav.Parent(m), Child: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Child < out[j].Child })
	return out
}

// anytime is the driver: seed with the static cut, deepen, keep the best.
func (s *polySolver) anytime(ctx context.Context) AnytimeResult {
	res := AnytimeResult{Grade: GradeStatic}
	if err := s.begin(ctx); err != nil {
		res.Reason = err.Error()
		res.Cut = s.staticCutRaw()
		return res
	}
	if err := s.buildStats(); err != nil {
		res.Reason = err.Error()
		res.Cut = s.staticCutRaw()
		return res
	}
	// Horizon-0 continuation for the seed evaluation: every cut child is
	// scored terminally until the first round supplies better values.
	for i := range s.best {
		s.best[i] = float64(s.L[i])
	}
	seed := append([]int(nil), s.kids[0]...)
	inc := seed
	incCost := s.evalCut(seed)
	res.StaticCost = incCost
	res.Cost = incCost
	for _, d := range s.schedule() {
		if err := s.checkpoint(); err != nil {
			s.err = err
			break
		}
		if err := s.computeRound(d); err != nil {
			break
		}
		res.Rounds++
		var cand []int
		s.walkCut(0, s.k, &cand)
		if len(cand) == 0 {
			continue // no valid candidate at this horizon (cannot happen)
		}
		// Fair comparison: every round re-scores the candidate, the
		// incumbent AND the static seed under this round's deeper
		// continuation values — the seed stays a standing candidate, so
		// Cost ≤ StaticCost holds under the shared final horizon even
		// when deeper best() values raise an earlier incumbent's score.
		candCost := s.evalCut(cand)
		curCost := s.evalCut(inc)
		seedCost := s.evalCut(seed)
		res.StaticCost = seedCost
		if candCost < curCost {
			inc, curCost = cand, candCost
			res.Improvements++
		}
		if seedCost < curCost {
			inc, curCost = seed, seedCost
		}
		incCost = curCost
		res.Cost = incCost
	}
	if s.err == nil {
		res.Grade = GradeFull
	} else {
		res.Reason = s.err.Error()
		if res.Rounds > 0 {
			res.Grade = GradeAnytime
		}
	}
	res.Cut = s.slotsToEdges(inc)
	return res
}

// AnytimeSolve runs the PolyCut anytime driver on the component rooted at
// root with a cut-size budget of k edges per EXPAND. It never fails on
// cancellation: a deadline or armed failpoint only lowers the grade of
// the returned cut (full → anytime → static). Errors are logical only
// (not a component root, singleton component).
func AnytimeSolve(ctx context.Context, at *ActiveTree, root navtree.NodeID, k int, model CostModel) (AnytimeResult, error) {
	if at.ComponentOf(root) != root {
		return AnytimeResult{}, fmt.Errorf("core: PolyCut: node %d is not a component root", root)
	}
	if at.ComponentSize(root) < 2 {
		return AnytimeResult{}, fmt.Errorf("core: PolyCut: component %d has no internal edges", root)
	}
	if k < 1 {
		k = 1
	}
	s := newPolySolver(at, root, k, model)
	res := s.anytime(ctx)
	anytimeRounds.Observe(float64(res.Rounds))
	if res.Improvements > 0 {
		anytimeImprovements.Add(uint64(res.Improvements))
	}
	cutGrades.With(res.Grade.String()).Inc()
	return res, nil
}

// PolyCutPolicy is the polynomial anytime expansion policy: PolyCut's
// O(n·k²) DP under the anytime driver. Unlike the other optimizing
// policies it never surfaces a ctx error from ChooseCut — expiry is
// absorbed into the cut's grade, reported through the context's
// GradeReport holder (see WithGradeReport).
type PolyCutPolicy struct {
	K     int // cut-size budget per EXPAND; default 10, like the reduction
	Model CostModel
}

// NewPolyCutPolicy returns the policy with the default parameters.
func NewPolyCutPolicy() *PolyCutPolicy {
	return &PolyCutPolicy{K: 10, Model: DefaultCostModel()}
}

// Name implements Policy.
func (p *PolyCutPolicy) Name() string { return "Poly-Anytime" }

// CutKey implements Policy: a full-grade cut depends on K and the cost
// model; anytime and static grades are never shared.
func (p *PolyCutPolicy) CutKey() any { return *p }

// ChooseCut implements Policy.
func (p *PolyCutPolicy) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	sp := obs.FromContext(ctx).StartChild("choose_cut")
	defer sp.End()
	sp.SetAttr("policy", p.Name())
	res, err := AnytimeSolve(ctx, at, root, p.K, p.Model)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("grade", res.Grade.String())
	sp.SetAttr("rounds", res.Rounds)
	sp.SetAttr("cut_size", len(res.Cut))
	ReportCutGrade(ctx, res.Grade, res.Reason)
	return res.Cut, nil
}

// ExpectedCost evaluates the component's expected TOPDOWN cost under the
// PolyCut surrogate at the full horizon; used by experiments and tests.
func (p *PolyCutPolicy) ExpectedCost(at *ActiveTree, root navtree.NodeID) (float64, error) {
	if at.ComponentOf(root) != root {
		return 0, fmt.Errorf("core: PolyCut: node %d is not a component root", root)
	}
	if at.ComponentSize(root) < 2 {
		return 0, fmt.Errorf("core: PolyCut: component %d has no internal edges", root)
	}
	k := p.K
	if k < 1 {
		k = 1
	}
	s := newPolySolver(at, root, k, p.Model)
	if err := s.begin(nil); err != nil {
		return 0, err
	}
	if err := s.buildStats(); err != nil {
		return 0, err
	}
	if err := s.computeRound(s.maxDepth); err != nil {
		return 0, err
	}
	return s.best[0], nil
}
