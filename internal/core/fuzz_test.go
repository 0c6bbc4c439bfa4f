package core

import (
	"context"
	"testing"
)

// FuzzOptEdgeCut drives the production child-factored DP differentially
// against the retained enumeration oracle on arbitrary small compTrees.
// The fuzz input is a compact tree description; any divergence in minimum
// cost (bit-for-bit), argmin cut, or error behaviour fails, as does any
// structurally invalid cut (Definition 3). Seed corpus entries under
// testdata/fuzz/FuzzOptEdgeCut cover a chain, a star, and the two-branch
// shape of the paper's Fig. 5 example.
//
// Byte layout (missing bytes read as zero, so every input decodes):
//
//	data[0]        tree size n = 2 + data[0]%9 (2..10 — small enough for
//	               the oracle's exponential enumeration)
//	data[1]        cost model: diffModels[data[1]%len(diffModels)]
//	n-1 bytes      parent of node i = byte%i (topological order holds)
//	n bytes        per-node citation bitmask (8-citation universe)
//	n bytes        per-node score s(i) = (byte%64)/32
func FuzzOptEdgeCut(f *testing.F) {
	f.Add([]byte{})                               // degenerate: 2-node chain, all-zero attachments
	f.Add([]byte{8, 3, 0, 0, 1, 0, 3, 2, 1, 255}) // mixed shape, sparse data
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := 2 + int(at(0))%9
		model := diffModels[int(at(1))%len(diffModels)]
		pos := 2
		parents := make([]int, n)
		parents[0] = -1
		for i := 1; i < n; i++ {
			parents[i] = int(at(pos)) % i
			pos++
		}
		results := make([][]int, n)
		for i := 0; i < n; i++ {
			b := at(pos)
			pos++
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					results[i] = append(results[i], bit)
				}
			}
		}
		scores := make([]float64, n)
		for i := 0; i < n; i++ {
			scores[i] = float64(at(pos)%64) / 32
			pos++
		}
		ct := makeCompTree(t, parents, results, scores, 8)

		gotCost, err := optExpectedCost(context.Background(), ct, model)
		if err != nil {
			t.Fatalf("optExpectedCost: %v", err)
		}
		eo := newEnumOptimizer(ct, model)
		wantCost := eo.best(0, ct.descMask[0]).cost
		if eo.err != nil {
			t.Fatalf("oracle overflowed on n=%d", n)
		}
		if gotCost != wantCost {
			t.Fatalf("fold cost %v != oracle cost %v (n=%d, model=%+v)", gotCost, wantCost, n, model)
		}

		cut, cutCost, err := optEdgeCut(context.Background(), ct, model)
		wantCut, wantCutCost, wantErr := newEnumOptimizer(ct, model).cutFor(0, ct.descMask[0])
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("fold err %v, oracle err %v", err, wantErr)
		}
		if err != nil {
			return // both agree: no valid EdgeCut for this state
		}
		if cutCost != wantCutCost {
			t.Fatalf("fold cut cost %v != oracle %v", cutCost, wantCutCost)
		}
		if len(cut) != len(wantCut) {
			t.Fatalf("fold cut %v != oracle cut %v", cut, wantCut)
		}
		for i := range cut {
			if cut[i] != wantCut[i] {
				t.Fatalf("fold cut %v != oracle cut %v", cut, wantCut)
			}
		}
		// Structural validity (Definition 3): a non-empty set of non-root
		// nodes, pairwise incomparable — descMask makes ancestry a bit test.
		if len(cut) == 0 {
			t.Fatal("optEdgeCut returned success with an empty cut")
		}
		for i, a := range cut {
			if a <= 0 || a >= ct.len() {
				t.Fatalf("cut node %d out of range", a)
			}
			for j, b := range cut {
				if i != j && ct.descMask[a]&(1<<uint(b)) != 0 {
					t.Fatalf("cut %v is not an antichain: %d contains %d", cut, a, b)
				}
			}
		}
	})
}
