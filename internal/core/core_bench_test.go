package core

import (
	"context"
	"fmt"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

// benchTree builds a prothymosin-scale active tree once per benchmark run.
func benchTree(b *testing.B) *ActiveTree {
	b.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 91, Nodes: 8000, TopLevel: 112, MaxDepth: 11})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 92, Citations: 313, MeanConcepts: 90, FirstID: 1, YearLo: 1990, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	return NewActiveTree(nav)
}

// BenchmarkNewActiveTree times a session opening on a navigation tree:
// "first" on a freshly built tree, which pays for the per-tree aggregates
// (citation bitsets, subtree unions, scores), and "shared" on a tree whose
// aggregates an earlier session already computed, as on a nav-cache hit.
func BenchmarkNewActiveTree(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 91, Nodes: 8000, TopLevel: 112, MaxDepth: 11})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 92, Citations: 313, MeanConcepts: 90, FirstID: 1, YearLo: 1990, YearHi: 2008,
	})
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nav := navtree.Build(corp, corp.IDs())
			b.StartTimer()
			_ = NewActiveTree(nav)
		}
	})
	b.Run("shared", func(b *testing.B) {
		nav := navtree.Build(corp, corp.IDs())
		_ = NewActiveTree(nav)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = NewActiveTree(nav)
		}
	})
}

// chainCompTree builds a root with `width` chains of `depth` decision
// nodes — the bushy reduced-tree shape whose ({cut at one of depth
// positions} + 1)^width valid EdgeCuts made the old enumerator allocate
// worst. Every node shares one citation, so sub-states terminate
// immediately and the benchmark isolates the root cut decision.
func chainCompTree(width, depth int) *compTree {
	n := 1 + width*depth
	ct := newCompTree(n, 0)
	ct.Parent[0] = -1
	for c := 0; c < width; c++ {
		for d := 0; d < depth; d++ {
			i := 1 + c*depth + d
			p := 0
			if d > 0 {
				p = i - 1
			}
			ct.Parent[i] = p
			ct.Children[p] = append(ct.Children[p], i)
			ct.NavEdge[i] = Edge{Parent: p, Child: i}
		}
	}
	for i := 0; i < n; i++ {
		bs := newBitset(2)
		bs.set(0)
		ct.Bits[i] = bs
		ct.Own[i] = 1
		ct.Score[i] = 0.05 + 0.01*float64(i%7)
		ct.Sum += ct.Score[i]
	}
	ct.computeDescMasks()
	return ct
}

// BenchmarkOptEdgeCut sweeps reduced-tree widths at depth 3, comparing the
// production child-factored fold (dp) against the retained materializing
// enumerator (enum) on identical trees. Run with -benchmem: the B/op and
// allocs/op gap is the point.
func BenchmarkOptEdgeCut(b *testing.B) {
	model := CostModel{ExpandCost: 1, Thi: 8, Tlo: 2, UseEntropy: true}
	for _, width := range []int{2, 4, 8} {
		ct := chainCompTree(width, 3)
		b.Run(fmt.Sprintf("w%dd3/dp", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := optEdgeCut(context.Background(), ct, model); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("w%dd3/enum", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eo := newEnumOptimizer(ct, model)
				if _, _, err := eo.cutFor(0, ct.descMask[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistinctRootComponent(b *testing.B) {
	at := benchTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = at.Distinct(at.Nav().Root())
	}
}

func BenchmarkKPartition(b *testing.B) {
	at := benchTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := kPartition(at, at.Nav().Root(), 10)
		if len(parts) == 0 {
			b.Fatal("no partitions")
		}
	}
}

func BenchmarkHeuristicChooseCut(b *testing.B) {
	at := benchTree(b)
	pol := NewHeuristicReducedOpt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.ChooseCut(context.Background(), at, at.Nav().Root()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandAndBacktrack(b *testing.B) {
	at := benchTree(b)
	pol := NewHeuristicReducedOpt()
	cut, err := pol.ChooseCut(context.Background(), at, at.Nav().Root())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := at.Expand(at.Nav().Root(), cut); err != nil {
			b.Fatal(err)
		}
		if err := at.Backtrack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVisualize(b *testing.B) {
	at := benchTree(b)
	pol := NewHeuristicReducedOpt()
	for step := 0; step < 3; step++ {
		root := at.Nav().Root()
		if at.ComponentSize(root) < 2 {
			break
		}
		cut, err := pol.ChooseCut(context.Background(), at, root)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := at.Expand(root, cut); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = at.Visualize()
	}
}
