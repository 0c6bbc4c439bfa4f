package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"bionav/internal/rng"
)

// This file retains the pre-child-factored Opt-EdgeCut implementation — the
// one that materialized every valid EdgeCut of a state as a [][]int
// cartesian product before scoring — as a differential oracle for the
// production fold. The two implementations walk cuts in the same order and
// accumulate their cost terms in the same order, so the differential test
// below demands bit-for-bit equal minima (no epsilon) and identical argmin
// cuts. The enumerator keeps its historical cut-count cap, with one fix the
// original lacked: once the cap error is set, pending recursion
// short-circuits instead of continuing to build products at ancestor
// states.

// refMaxCutsPerState caps cut enumeration so adversarial tree shapes fail
// loudly instead of hanging (the production fold needs no such cap).
const refMaxCutsPerState = 1 << 18

type enumStateKey struct {
	r    int
	mask uint64
}

// enumVal is a state's value, its expected cost.
type enumVal struct {
	cost float64
}

type enumOptimizer struct {
	ct      *compTree
	model   CostModel
	memo    map[enumStateKey]enumVal
	scratch bitset
	err     error
	steps   int // cut-sets materialized; bounds the overflow short-circuit test
}

func newEnumOptimizer(ct *compTree, model CostModel) *enumOptimizer {
	return &enumOptimizer{
		ct:      ct,
		model:   model,
		memo:    make(map[enumStateKey]enumVal),
		scratch: newBitset(64 * len(ct.Bits[0])),
	}
}

func (o *enumOptimizer) cutFor(r int, mask uint64) ([]int, float64, error) {
	cost, cut := o.bestCut(r, mask)
	if o.err != nil {
		return nil, 0, o.err
	}
	if cut == nil {
		return nil, 0, fmt.Errorf("core: no valid EdgeCut exists")
	}
	return cut, cost, nil
}

func (o *enumOptimizer) best(r int, mask uint64) enumVal {
	key := enumStateKey{r, mask}
	if v, ok := o.memo[key]; ok {
		return v
	}
	L := o.ct.distinct(mask, o.scratch)
	var own []int
	for i := 0; i < o.ct.len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			own = append(own, o.ct.Own[i])
		}
	}
	pE := o.model.expandProb(own, L, len(own))
	val := enumVal{cost: float64(L)}
	if pE > 0 && onesCount(mask) > 1 {
		cutCost, cut := o.bestCut(r, mask)
		if cut != nil {
			val.cost = (1-pE)*float64(L) + pE*cutCost
		}
	}
	o.memo[key] = val
	return val
}

func (o *enumOptimizer) bestCut(r int, mask uint64) (float64, []int) {
	cuts := o.enumerateCuts(r, mask)
	if o.err != nil || len(cuts) == 0 {
		return 0, nil
	}
	bestCost := 0.0
	var bestCut []int
	for _, cut := range cuts {
		var loweredAll uint64
		cost := o.model.ExpandCost
		for _, v := range cut {
			sv := o.ct.descMask[v] & mask
			loweredAll |= sv
			cost += 1 + o.ct.exploreProb(sv)*o.best(v, sv).cost
		}
		upper := mask &^ loweredAll
		w := 1.0
		if o.model.DiscountUpper {
			w = o.ct.exploreProb(upper)
		}
		cost += w * o.best(r, upper).cost
		if bestCut == nil || cost < bestCost {
			bestCost = cost
			bestCut = cut
		}
	}
	return bestCost, bestCut
}

func (o *enumOptimizer) enumerateCuts(r int, mask uint64) [][]int {
	all := o.cutsBelow(r, mask)
	out := all[:0]
	for _, c := range all {
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// cutsBelow returns all cut-sets (including the empty one) using edges
// strictly inside subtree(v) ∩ mask. Once err is set — here or in any other
// state — it returns immediately instead of building further products.
func (o *enumOptimizer) cutsBelow(v int, mask uint64) [][]int {
	if o.err != nil {
		return [][]int{nil}
	}
	acc := [][]int{nil}
	for _, c := range o.ct.Children[v] {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		sub := o.cutsBelow(c, mask)
		if o.err != nil {
			return [][]int{nil}
		}
		options := make([][]int, 0, len(sub)+1)
		options = append(options, []int{c})
		options = append(options, sub...)
		next := make([][]int, 0, len(acc)*len(options))
		for _, a := range acc {
			for _, opt := range options {
				merged := make([]int, 0, len(a)+len(opt))
				merged = append(merged, a...)
				merged = append(merged, opt...)
				next = append(next, merged)
				o.steps++
				if len(next) > refMaxCutsPerState {
					o.err = fmt.Errorf("core: Opt-EdgeCut cut enumeration exceeded %d cuts", refMaxCutsPerState)
					return [][]int{nil}
				}
			}
		}
		acc = next
	}
	return acc
}

func onesCount(mask uint64) int {
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

var diffModels = []CostModel{
	{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true},
	{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true, DiscountUpper: true},
	{ExpandCost: 3, Thi: 10, Tlo: 1, UseEntropy: false},
	{ExpandCost: 0.5, Thi: 6, Tlo: 3, UseEntropy: false, DiscountUpper: true},
}

// TestChildFactoredMatchesEnumerator is the differential test for the
// production fold: on seeded random compTrees the minimum cost must equal
// the enumerator's bit-for-bit (same term order ⇒ same rounding) and the
// argmin cut must be the identical node sequence (same first-wins
// tie-breaking over the same enumeration order). After each solve, every
// state in the optimizer's memo must hold the enumerator's cost and the
// state's pX bit for bit, and the memo must hold one state per miss: each
// state is computed once.
func TestChildFactoredMatchesEnumerator(t *testing.T) {
	src := rng.New(20090401)
	for trial := 0; trial < 200; trial++ {
		model := diffModels[trial%len(diffModels)]
		n := 2 + src.Intn(9)
		ct := randomCompTree(t, src, n, 16)
		full := ct.descMask[0]

		eo := newEnumOptimizer(ct, model)
		wantCost := eo.best(0, full).cost
		if eo.err != nil {
			t.Fatalf("trial %d: enumerator overflowed on n=%d", trial, n)
		}
		o := newOptimizer(ct, model)
		gotCost, err := o.expectedCost(context.Background(), 0, full)
		if err != nil {
			t.Fatalf("trial %d: expectedCost: %v", trial, err)
		}
		checkMemoMatchesEnumerator(t, trial, o, eo)
		if pooled, err := optExpectedCost(context.Background(), ct, model); err != nil || pooled != gotCost {
			t.Fatalf("trial %d: optExpectedCost = %v, %v; own-memo optimizer %v", trial, pooled, err, gotCost)
		}
		if gotCost != wantCost {
			t.Fatalf("trial %d (n=%d): fold cost %v != enumerator cost %v (diff %g)",
				trial, n, gotCost, wantCost, gotCost-wantCost)
		}

		o = newOptimizer(ct, model)
		cut, cutCost, err := o.cutFor(context.Background(), 0, full)
		if err != nil {
			t.Fatalf("trial %d: cutFor: %v", trial, err)
		}
		checkMemoMatchesEnumerator(t, trial, o, eo)
		pooledCut, pooledCost, err := optEdgeCut(context.Background(), ct, model)
		if err != nil || pooledCost != cutCost || !slices.Equal(pooledCut, cut) {
			t.Fatalf("trial %d: optEdgeCut = %v, %v, %v; own-memo optimizer %v, %v", trial, pooledCut, pooledCost, err, cut, cutCost)
		}
		wantCut, wantCutCost, err := newEnumOptimizer(ct, model).cutFor(0, full)
		if err != nil {
			t.Fatalf("trial %d: enumerator cutFor: %v", trial, err)
		}
		if cutCost != wantCutCost {
			t.Fatalf("trial %d: fold cut cost %v != enumerator %v", trial, cutCost, wantCutCost)
		}
		if !slices.Equal(cut, wantCut) {
			t.Fatalf("trial %d: fold cut %v != enumerator cut %v", trial, cut, wantCut)
		}
	}
}

// checkMemoMatchesEnumerator requires o's memo to hold exactly one state
// per miss, each equal bit for bit to the enumerator's cost for the same
// (lowest bit, mask) and to its own pX.
func checkMemoMatchesEnumerator(t *testing.T, trial int, o *optimizer, eo *enumOptimizer) {
	t.Helper()
	if o.memoMisses != uint64(o.memo.n) {
		t.Fatalf("trial %d: %d states computed, %d stored", trial, o.memoMisses, o.memo.n)
	}
	stored := 0
	for _, sl := range o.memo.slots {
		if sl.mask == 0 {
			continue
		}
		stored++
		want := eo.best(bits.TrailingZeros64(sl.mask), sl.mask).cost
		if math.Float64bits(sl.val.cost) != math.Float64bits(want) {
			t.Fatalf("trial %d: state %#x cost %v, enumerator %v", trial, sl.mask, sl.val.cost, want)
		}
		if px := o.ct.exploreProb(sl.mask); math.Float64bits(sl.val.px) != math.Float64bits(px) {
			t.Fatalf("trial %d: state %#x pX %v, want %v", trial, sl.mask, sl.val.px, px)
		}
	}
	if stored != o.memo.n {
		t.Fatalf("trial %d: memo counts %d states, holds %d", trial, o.memo.n, stored)
	}
}

// TestEnumeratorOverflowShortCircuits pins both halves of the cap story:
// the retained enumerator still fails loudly past refMaxCutsPerState and —
// the fixed behaviour — stops materializing products everywhere once the
// error is set, while the production fold handles the same tree with no
// cap at all. The tree is a root with two 19-leaf stars: either star alone
// yields 2^19 cut-sets, so without the short-circuit the second star would
// roughly double the materialization count after the first one overflows.
func TestEnumeratorOverflowShortCircuits(t *testing.T) {
	const width = 19
	n := 1 + 2 + 2*width
	parents := make([]int, n)
	results := make([][]int, n)
	scores := make([]float64, n)
	parents[0] = -1
	parents[1], parents[2] = 0, 0
	for i := 0; i < width; i++ {
		parents[3+i] = 1
		parents[3+width+i] = 2
	}
	for i := 0; i < n; i++ {
		results[i] = []int{0} // L = 1 everywhere keeps sub-states trivial
		scores[i] = 0.05
	}
	ct := makeCompTree(t, parents, results, scores, 2)
	model := CostModel{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true}

	eo := newEnumOptimizer(ct, model)
	if _, _, err := eo.cutFor(0, ct.descMask[0]); err == nil {
		t.Fatal("enumerator accepted a state with more cuts than its cap")
	}
	if limit := 4 * refMaxCutsPerState; eo.steps > limit {
		t.Fatalf("enumerator kept building products after overflow: %d steps > %d", eo.steps, limit)
	}

	cut, _, err := optEdgeCut(context.Background(), ct, model)
	if err != nil {
		t.Fatalf("production fold failed on the capped tree: %v", err)
	}
	if len(cut) == 0 {
		t.Fatal("production fold returned an empty cut")
	}
}
