package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/faults"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
	"bionav/internal/rng"
)

// buildActiveTree constructs an ActiveTree from a raw tree description:
// parents[0] must be -1 (node 0 becomes the single child of the
// navigation root), results[i] lists the citation bits attached at node
// i over a small universe, counts[i] is the node's global concept count
// (selectivity denominator). The navigation root is one level above node
// 0, so component solves on at.Nav().Root() cover the whole description.
func buildActiveTree(t testing.TB, parents []int, results [][]int, counts []int64) *ActiveTree {
	t.Helper()
	b := hierarchy.NewBuilder("FUZZ")
	ids := make([]hierarchy.ConceptID, len(parents))
	for i := range parents {
		p := hierarchy.ConceptID(0)
		if i > 0 {
			p = ids[parents[i]]
		}
		ids[i] = b.Add(p, fmt.Sprintf("n%d", i))
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// One citation per bit, attached to every node listing that bit.
	byBit := map[int][]hierarchy.ConceptID{}
	for i, rs := range results {
		for _, bit := range rs {
			byBit[bit] = append(byBit[bit], ids[i])
		}
	}
	var cits []corpus.Citation
	for bit := 0; bit < 64; bit++ {
		if cs := byBit[bit]; len(cs) > 0 {
			cits = append(cits, corpus.Citation{ID: corpus.CitationID(bit + 1), Title: "t", Concepts: cs})
		}
	}
	if len(cits) == 0 {
		// A corpus needs at least one citation; attach it to node 0.
		cits = append(cits, corpus.Citation{ID: 1, Title: "t", Concepts: []hierarchy.ConceptID{ids[0]}})
	}
	gc := make([]int64, tree.Len())
	for i := range gc {
		gc[i] = 1000
	}
	for i, c := range counts {
		if c > 0 {
			gc[ids[i]] = c
		}
	}
	corp, err := corpus.New(tree, cits, gc)
	if err != nil {
		t.Fatal(err)
	}
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewActiveTree(nav)
}

// validateCut asserts Definition 3 on a navigation-tree EdgeCut without
// importing internal/check (which depends on core): every edge must be a
// real tree edge inside root's component, and no two cut children may
// share a root-leaf path.
func validateCut(t testing.TB, at *ActiveTree, root navtree.NodeID, cut []Edge) {
	t.Helper()
	if len(cut) == 0 {
		t.Fatal("empty EdgeCut")
	}
	for _, e := range cut {
		if e.Child <= 0 || e.Child >= at.Nav().Len() || at.Nav().Parent(e.Child) != e.Parent {
			t.Fatalf("(%d→%d) is not a navigation-tree edge", e.Parent, e.Child)
		}
		if at.ComponentOf(e.Child) != root || e.Child == root {
			t.Fatalf("edge (%d→%d) not inside component %d", e.Parent, e.Child, root)
		}
	}
	for i := range cut {
		for j := range cut {
			if i != j && at.Nav().IsAncestor(cut[i].Child, cut[j].Child) {
				t.Fatalf("invalid EdgeCut: %d is an ancestor of %d", cut[i].Child, cut[j].Child)
			}
		}
	}
}

// randomTreeSpec draws a small random tree description from src.
func randomTreeSpec(src *rng.Source, n int) (parents []int, results [][]int, counts []int64) {
	parents = make([]int, n)
	results = make([][]int, n)
	counts = make([]int64, n)
	parents[0] = -1
	for i := 1; i < n; i++ {
		parents[i] = src.Intn(i)
	}
	for i := 0; i < n; i++ {
		for bit := 0; bit < 10; bit++ {
			if src.Intn(3) == 0 {
				results[i] = append(results[i], bit)
			}
		}
		counts[i] = int64(1 + src.Intn(999))
	}
	return parents, results, counts
}

// fullSolver builds a polySolver over root's component and runs the
// unbounded stats precompute; the caller picks the rounds.
func fullSolver(t testing.TB, at *ActiveTree, root navtree.NodeID, k int, model CostModel) *polySolver {
	t.Helper()
	s := newPolySolver(at, root, k, model)
	if err := s.begin(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.buildStats(); err != nil {
		t.Fatal(err)
	}
	return s
}

// antichainsIncl enumerates every antichain of slot v's subtree under
// horizon d, including the empty one and {v} itself — the brute-force
// mirror of the DP's state space. Exponential; test trees stay tiny.
func antichainsIncl(s *polySolver, d, v int) [][]int {
	if s.depth[v] > d {
		return [][]int{nil}
	}
	out := [][]int{nil, {v}}
	if s.depth[v] == d {
		return out
	}
	combos := [][]int{nil}
	for _, c := range s.lay.children(v) {
		var next [][]int
		for _, left := range combos {
			for _, right := range antichainsIncl(s, d, int(c)) {
				merged := append(append([]int(nil), left...), right...)
				next = append(next, merged)
			}
		}
		combos = next
	}
	for _, a := range combos {
		if len(a) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// oracleBelow is the brute-force minimum gain-sum over nonempty
// antichains of at most j cut edges strictly below v under horizon d.
func oracleBelow(s *polySolver, d, v, j int) float64 {
	best := math.Inf(1)
	combos := [][]int{nil}
	for _, c := range s.lay.children(v) {
		var next [][]int
		for _, left := range combos {
			for _, right := range antichainsIncl(s, d, int(c)) {
				next = append(next, append(append([]int(nil), left...), right...))
			}
		}
		combos = next
	}
	for _, a := range combos {
		if len(a) == 0 || len(a) > j {
			continue
		}
		sum := 0.0
		for _, x := range a {
			sum += s.gain[x]
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

const polyEps = 1e-9

// checkRoundAgainstOracle verifies every per-slot table of one deepening
// round against brute force: the aggregates (L, lost, pE), the
// continuation values, and the antichain knapsack tables.
func checkRoundAgainstOracle(t *testing.T, s *polySolver, d int) {
	t.Helper()
	nav := s.at.nav
	for v := range s.lay.node {
		// Aggregates first: collect the subtree's member set (slot order
		// is pre-order, so subtree(v) = slots [v, preEnd[v])).
		var subtree []int
		for p := v; p < s.preEnd[v]; p++ {
			subtree = append(subtree, p)
		}
		seen := map[int]bool{}
		ownList := make([]int, 0, len(subtree))
		inSub := map[int]bool{}
		for _, x := range subtree {
			inSub[x] = true
			ownList = append(ownList, s.own[x])
			for _, idx := range nav.ResultIndexes(s.lay.node[x]) {
				seen[int(idx)] = true
			}
		}
		if got, want := s.L[v], len(seen); got != want {
			t.Fatalf("L[%d] = %d, brute force %d", v, got, want)
		}
		lost := 0
		for bit := range seen {
			exclusive := true
			for x := range s.lay.node {
				if inSub[x] {
					continue
				}
				for _, idx := range nav.ResultIndexes(s.lay.node[x]) {
					if int(idx) == bit {
						exclusive = false
					}
				}
			}
			if exclusive {
				lost++
			}
		}
		if got := s.lost[v]; got != lost {
			t.Fatalf("lost[%d] = %d, brute force %d", v, got, lost)
		}
		wantPE := s.model.expandProb(ownList, s.L[v], len(subtree))
		if got := s.expandProbAt(v); math.Abs(got-wantPE) > 1e-12 {
			t.Fatalf("expandProbAt(%d) = %v, expandProb = %v", v, got, wantPE)
		}

		// Round tables.
		if s.depth[v] > d {
			continue
		}
		L := float64(s.L[v])
		wantBest := L
		if s.depth[v] < d && s.size[v] > 1 {
			if pE := s.expandProbAt(v); pE > 0 {
				if below := oracleBelow(s, d, v, s.k); !math.IsInf(below, 1) {
					wantBest = (1-pE)*L + pE*(s.model.ExpandCost+L+below)
				}
			}
		}
		if math.Abs(s.best[v]-wantBest) > polyEps {
			t.Fatalf("d=%d best[%d] = %v, brute force %v", d, v, s.best[v], wantBest)
		}
		for j := 1; j <= s.k; j++ {
			want := math.Inf(1)
			for _, a := range antichainsIncl(s, d, v) {
				if len(a) == 0 || len(a) > j {
					continue
				}
				sum := 0.0
				for _, x := range a {
					sum += s.gain[x]
				}
				if sum < want {
					want = sum
				}
			}
			if got := s.nea[v][j]; math.Abs(got-want) > polyEps {
				t.Fatalf("d=%d nea[%d][%d] = %v, brute force %v", d, v, j, got, want)
			}
		}
	}

	// Reconstruction: the argmin cut must be a valid antichain within the
	// horizon achieving the root's knapsack value exactly.
	var cut []int
	s.walkCut(0, s.k, &cut)
	if len(cut) == 0 || len(cut) > s.k {
		t.Fatalf("d=%d reconstructed cut size %d (k=%d)", d, len(cut), s.k)
	}
	sum := 0.0
	for _, v := range cut {
		if s.depth[v] > d {
			t.Fatalf("d=%d cut slot %d beyond horizon (depth %d)", d, v, s.depth[v])
		}
		sum += s.gain[v]
		for _, w := range cut {
			if v != w && v <= w && w < s.preEnd[v] {
				t.Fatalf("d=%d cut not an antichain: %d under %d", d, w, v)
			}
		}
	}
	if want := oracleBelow(s, d, 0, s.k); math.Abs(sum-want) > polyEps {
		t.Fatalf("d=%d reconstructed cut gain-sum %v, optimum %v", d, sum, want)
	}
}

// TestPolyCutMatchesBruteForce differentially tests the knapsack DP, its
// aggregates, and the argmin reconstruction against explicit enumeration
// on seeded random trees, across every cost model and every horizon.
func TestPolyCutMatchesBruteForce(t *testing.T) {
	src := rng.New(61)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(10)
		parents, results, counts := randomTreeSpec(src, n)
		at := buildActiveTree(t, parents, results, counts)
		model := diffModels[trial%len(diffModels)]
		k := 1 + src.Intn(4)
		s := fullSolver(t, at, at.Nav().Root(), k, model)
		for d := 1; d <= s.maxDepth; d++ {
			if err := s.computeRound(d); err != nil {
				t.Fatal(err)
			}
			checkRoundAgainstOracle(t, s, d)
		}
	}
}

// TestPolyCutNeverWorseThanExactOptimum checks the modeling direction of
// the surrogate: PolyCut's cut, evaluated under the exact exponential
// recursion, can never beat the exact optimum (Opt-EdgeCut is exact, so
// a violation means the evaluator or the cut is broken), and the anytime
// result's surrogate cost never exceeds its static seed's.
func TestPolyCutNeverWorseThanExactOptimum(t *testing.T) {
	src := rng.New(62)
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(10)
		parents, results, counts := randomTreeSpec(src, n)
		at := buildActiveTree(t, parents, results, counts)
		model := diffModels[trial%len(diffModels)]
		root := at.Nav().Root()
		res, err := AnytimeSolve(context.Background(), at, root, 10, model)
		if err != nil {
			t.Fatal(err)
		}
		if res.Grade != GradeFull {
			t.Fatalf("unbounded solve graded %v", res.Grade)
		}
		if res.Cost > res.StaticCost+polyEps {
			t.Fatalf("anytime cost %v worse than its static seed %v", res.Cost, res.StaticCost)
		}
		validateCut(t, at, root, res.Cut)
		ct, err := exactCompTree(at, root)
		if err != nil {
			t.Fatal(err)
		}
		_, optCost, err := optEdgeCut(context.Background(), ct, model)
		if err != nil {
			t.Fatal(err)
		}
		got := exactCutCost(t, at, root, res.Cut, model)
		if got < optCost-polyEps {
			t.Fatalf("PolyCut cut exact cost %v beats exact optimum %v", got, optCost)
		}
	}
}

// exactCutCost evaluates an arbitrary EdgeCut of root's component under
// the exact exponential recursion: K + Σ(1 + pX·best(v, S_v)) + w·best(r, U).
func exactCutCost(t testing.TB, at *ActiveTree, root navtree.NodeID, cut []Edge, model CostModel) float64 {
	t.Helper()
	members := at.Members(root)
	ct, err := exactCompTree(at, root)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[navtree.NodeID]int, len(members))
	for i, m := range members {
		idx[m] = i
	}
	o := newOptimizer(ct, model)
	if err := o.begin(nil); err != nil {
		t.Fatal(err)
	}
	release := o.borrowScratch()
	defer release()
	full := ct.descMask[0]
	cost := model.ExpandCost
	var lowered uint64
	for _, e := range cut {
		v, ok := idx[e.Child]
		if !ok {
			t.Fatalf("cut child %d not a component member", e.Child)
		}
		sv := ct.descMask[v] & full
		cost += 1 + ct.exploreProb(sv)*o.best(v, sv).cost
		lowered |= sv
	}
	upper := full &^ lowered
	w := 1.0
	if model.DiscountUpper {
		w = ct.exploreProb(upper)
	}
	cost += w * o.best(0, upper).cost
	if o.err != nil {
		t.Fatal(o.err)
	}
	return cost
}

// w8d3ActiveTree is the paper's w8d3 stress shape as an active tree: a
// root with 8 chains of depth 3. Three "hot" chains carry exclusive,
// highly selective citations; five "dup" chains share two common
// citations and low selectivity, so the optimal frontier omits them —
// the shape that separates a selective cut from the static all-children
// one. Solved with w8d3Model (the same constants the Opt-EdgeCut w8d3
// benches use), the root component sits in the entropy regime.
var w8d3Model = CostModel{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true}

func w8d3ActiveTree(t testing.TB) *ActiveTree {
	t.Helper()
	b := hierarchy.NewBuilder("MESH")
	heads := make([]hierarchy.ConceptID, 8)
	chains := make([][3]hierarchy.ConceptID, 8)
	for i := 0; i < 8; i++ {
		heads[i] = b.Add(0, fmt.Sprintf("chain %d", i))
		p := heads[i]
		chains[i][0] = p
		for d := 1; d < 3; d++ {
			p = b.Add(p, fmt.Sprintf("chain %d depth %d", i, d))
			chains[i][d] = p
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cits []corpus.Citation
	id := corpus.CitationID(1)
	mk := func(cs ...hierarchy.ConceptID) {
		cits = append(cits, corpus.Citation{ID: id, Title: "t", Concepts: cs})
		id++
	}
	// Hot chains 0–2: three exclusive citations each, one per level.
	for i := 0; i < 3; i++ {
		mk(chains[i][0])
		mk(chains[i][0], chains[i][1])
		mk(chains[i][0], chains[i][1], chains[i][2])
	}
	// Dup chains 3–7: all carry the same two citations (annotated at
	// every level), so cutting any of them never shrinks the upper's L.
	dupA := make([]hierarchy.ConceptID, 0, 15)
	dupB := make([]hierarchy.ConceptID, 0, 15)
	for i := 3; i < 8; i++ {
		dupA = append(dupA, chains[i][0], chains[i][1])
		dupB = append(dupB, chains[i][0], chains[i][2])
	}
	mk(dupA...)
	mk(dupB...)
	counts := make([]int64, tree.Len())
	for i := range counts {
		counts[i] = 4000 // dup chains: common concepts, low selectivity
	}
	for i := 0; i < 3; i++ {
		for d := 0; d < 3; d++ {
			counts[chains[i][d]] = 10 // hot chains: rare concepts
		}
	}
	corp, err := corpus.New(tree, cits, counts)
	if err != nil {
		t.Fatal(err)
	}
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewActiveTree(nav)
}

// TestPolyCutDeterminism: identical inputs must reconstruct identical
// cuts — policies feed replay logs and differential caches.
func TestPolyCutDeterminism(t *testing.T) {
	at := w8d3ActiveTree(t)
	root := at.Nav().Root()
	a, err := AnytimeSolve(context.Background(), at, root, 10, w8d3Model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnytimeSolve(context.Background(), at, root, 10, w8d3Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cut) != len(b.Cut) || a.Cost != b.Cost {
		t.Fatalf("non-deterministic solve: %v (%v) vs %v (%v)", a.Cut, a.Cost, b.Cut, b.Cost)
	}
	for i := range a.Cut {
		if a.Cut[i] != b.Cut[i] {
			t.Fatalf("non-deterministic cut: %v vs %v", a.Cut, b.Cut)
		}
	}
}

// TestPolyCutGradeLadder probes the three-tier ladder by aborting the
// solve at every successive checkpoint via the PolyCut failpoint: grades
// must move monotonically static → anytime → full as the budget grows,
// every result must carry a valid cut, and anytime results must beat or
// match their static seed.
func TestPolyCutGradeLadder(t *testing.T) {
	at := w8d3ActiveTree(t)
	root := at.Nav().Root()
	defer faults.Reset()
	sawStatic, sawAnytime := false, false
	prev := GradeStatic
	for n := uint64(0); ; n++ {
		faults.Reset()
		faults.Arm(faults.SitePolyDP, faults.AfterN(n), nil)
		res, err := AnytimeSolve(context.Background(), at, root, 10, w8d3Model)
		if err != nil {
			t.Fatal(err)
		}
		validateCut(t, at, root, res.Cut)
		switch res.Grade {
		case GradeStatic:
			sawStatic = true
			if prev != GradeStatic {
				t.Fatalf("grade regressed to static at budget %d", n)
			}
			if res.Reason == "" {
				t.Fatalf("budget %d: static grade with no reason", n)
			}
		case GradeAnytime:
			sawAnytime = true
			if res.Rounds < 1 {
				t.Fatalf("budget %d: anytime grade with %d rounds", n, res.Rounds)
			}
			if res.Cost > res.StaticCost+polyEps {
				t.Fatalf("budget %d: anytime cost %v worse than static %v", n, res.Cost, res.StaticCost)
			}
			if res.Reason == "" {
				t.Fatalf("budget %d: anytime grade with no reason", n)
			}
		case GradeFull:
			if !sawStatic || !sawAnytime {
				t.Fatalf("ladder skipped a tier: static=%v anytime=%v", sawStatic, sawAnytime)
			}
			if res.Reason != "" {
				t.Fatalf("full grade with reason %q", res.Reason)
			}
			return // budget large enough: the ladder is complete
		}
		prev = res.Grade
		if n > 10000 {
			t.Fatal("solve never completed")
		}
	}
}

// TestAnytimeBeatsStaticOnW8D3 is the acceptance scenario: with the DP
// failpoint stalling Opt-EdgeCut, today's Heuristic-ReducedOpt path can
// only degrade to static — while PolyCut, cut off at the same kind of
// budget, still returns an anytime cut. That cut must be strictly
// cheaper than static and within 5% of the unbounded heuristic's,
// everything scored by one yardstick: the full-horizon PolyCut
// evaluator.
func TestAnytimeBeatsStaticOnW8D3(t *testing.T) {
	at := w8d3ActiveTree(t)
	root := at.Nav().Root()
	defer faults.Reset()

	// Today's code under deadline pressure: the heuristic's DP aborts.
	faults.Arm(faults.SiteDP, faults.Always(), nil)
	h := &HeuristicReducedOpt{K: 10, Model: w8d3Model}
	if _, err := h.ChooseCut(context.Background(), at, root); err == nil {
		t.Fatal("expected the stalled heuristic to fail (forcing callers static)")
	}
	faults.Reset()

	// The anytime arm under an equivalent budget: find the first
	// checkpoint budget that yields an interrupted-but-useful solve.
	var anytimeRes AnytimeResult
	found := false
	for n := uint64(0); n < 10000 && !found; n++ {
		faults.Reset()
		faults.Arm(faults.SitePolyDP, faults.AfterN(n), nil)
		res, err := AnytimeSolve(context.Background(), at, root, 10, w8d3Model)
		if err != nil {
			t.Fatal(err)
		}
		if res.Grade == GradeAnytime {
			anytimeRes, found = res, true
		}
		if res.Grade == GradeFull {
			break
		}
	}
	faults.Reset()
	if !found {
		t.Fatal("no checkpoint budget produced an anytime-grade solve")
	}

	heurCut, err := h.ChooseCut(context.Background(), at, root)
	if err != nil {
		t.Fatal(err)
	}
	staticCut, err := StaticAll{}.ChooseCut(context.Background(), at, root)
	if err != nil {
		t.Fatal(err)
	}

	// One yardstick for all three cuts: full-horizon continuation values.
	s := fullSolver(t, at, root, 10, w8d3Model)
	if err := s.computeRound(s.maxDepth); err != nil {
		t.Fatal(err)
	}
	eval := func(cut []Edge) float64 {
		slots := make([]int, len(cut))
		for i, e := range cut {
			v := -1
			for x, m := range s.lay.node {
				if m == e.Child {
					v = x
				}
			}
			if v < 0 {
				t.Fatalf("cut child %d not a member", e.Child)
			}
			slots[i] = v
		}
		return s.evalCut(slots)
	}
	anytimeCost := eval(anytimeRes.Cut)
	staticCost := eval(staticCut)
	heurCost := eval(heurCut)
	if anytimeCost >= staticCost {
		t.Fatalf("anytime cut cost %v not strictly better than static %v", anytimeCost, staticCost)
	}
	if anytimeCost > 1.05*heurCost {
		t.Fatalf("anytime cut cost %v more than 5%% above heuristic %v", anytimeCost, heurCost)
	}
}

// TestPolyCutPolicyErrors mirrors the other policies' logical failures.
func TestPolyCutPolicyErrors(t *testing.T) {
	at := w8d3ActiveTree(t)
	p := NewPolyCutPolicy()
	leaf := at.Nav().Len() - 1
	if _, err := p.ChooseCut(context.Background(), at, leaf); err == nil {
		t.Fatal("expected error on non-root node")
	}
	if _, err := AnytimeSolve(context.Background(), at, leaf, 10, w8d3Model); err == nil {
		t.Fatal("expected error on non-root node")
	}
}

// TestPolyCutGradeReport checks the ctx plumbing: a full solve reports
// GradeFull, an aborted one reports its tier and reason through the
// holder SolveComponents and ExpandContext install.
func TestPolyCutGradeReport(t *testing.T) {
	at := w8d3ActiveTree(t)
	root := at.Nav().Root()
	defer faults.Reset()
	p := &PolyCutPolicy{K: 10, Model: w8d3Model}

	ctx, rep := WithGradeReport(context.Background())
	if _, err := p.ChooseCut(ctx, at, root); err != nil {
		t.Fatal(err)
	}
	if rep.Grade != GradeFull || rep.Reason != "" {
		t.Fatalf("unbounded solve reported %v %q", rep.Grade, rep.Reason)
	}

	faults.Arm(faults.SitePolyDP, faults.Always(), nil)
	ctx, rep = WithGradeReport(context.Background())
	cut, err := p.ChooseCut(ctx, at, root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grade != GradeStatic || rep.Reason == "" {
		t.Fatalf("fully aborted solve reported %v %q", rep.Grade, rep.Reason)
	}
	validateCut(t, at, root, cut)
}
