package core

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"bionav/internal/rng"
)

// This file validates the Opt-EdgeCut dynamic program against a Monte
// Carlo simulation of the generative TOPDOWN user model (§III): a user who
// explores a component either SHOWRESULTS (paying its distinct count) or,
// with probability pE, expands it along the optimizer's own cut — paying K
// plus one unit per revealed label — and then descends into each revealed
// lower component independently with probability pX, while continuing to
// pay for the upper remainder. The empirical mean cost over many simulated
// users must converge to optExpectedCost.

// mcUser simulates one user exploring state (r, mask) under the optimal
// policy: a state that expands follows its argmin cut, which bestCut
// recovers once per state and cuts caches by mask. Returns the cost paid.
func mcUser(o *optimizer, cuts map[uint64][]int, src *rng.Source, r int, mask uint64) float64 {
	L := o.ct.distinct(mask, *o.scratch)
	own := make([]int, 0, bits.OnesCount64(mask))
	for i := 0; i < o.ct.len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			own = append(own, o.ct.Own[i])
		}
	}
	pE := o.model.expandProb(own, L, len(own))
	var cut []int
	if pE > 0 && len(own) > 1 {
		c, ok := cuts[mask]
		if !ok {
			_, c = o.bestCut(r, mask)
			cuts[mask] = c
		}
		cut = c
	}
	if cut == nil || src.Float64() >= pE {
		return float64(L) // SHOWRESULTS
	}
	cost := o.model.ExpandCost
	var lowered uint64
	for _, c := range cut {
		sv := o.ct.descMask[c] & mask
		lowered |= sv
		cost++ // examine the revealed label
		if src.Float64() < o.ct.exploreProb(sv) {
			cost += mcUser(o, cuts, src, c, sv)
		}
	}
	upper := mask &^ lowered
	if o.model.DiscountUpper {
		if src.Float64() < o.ct.exploreProb(upper) {
			cost += mcUser(o, cuts, src, r, upper)
		}
	} else {
		cost += mcUser(o, cuts, src, r, upper)
	}
	return cost
}

func TestMonteCarloMatchesDP(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation is slow")
	}
	src := rng.New(31337)
	for trial := 0; trial < 10; trial++ {
		model := CostModel{ExpandCost: 1, Thi: 10, Tlo: 2, UseEntropy: true, DiscountUpper: trial%2 == 1}
		ct := randomCompTree(t, src, 2+src.Intn(6), 16)
		o := newOptimizer(ct, model)
		if err := o.begin(context.Background()); err != nil {
			t.Fatal(err)
		}
		scratch := newBitset(64 * len(ct.Bits[0]))
		o.scratch = &scratch
		want := o.best(0, ct.descMask[0]).cost

		const users = 60000
		sum := 0.0
		cuts := make(map[uint64][]int)
		for u := 0; u < users; u++ {
			sum += mcUser(o, cuts, src, 0, ct.descMask[0])
		}
		got := sum / users
		// Standard error scales with the cost magnitude; 3% + 0.3 absolute
		// is comfortably above the noise floor for 60k users.
		tol := 0.03*want + 0.3
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d (discount=%v): Monte Carlo mean %.4f vs DP %.4f (tol %.4f)",
				trial, model.DiscountUpper, got, want, tol)
		}
	}
}
