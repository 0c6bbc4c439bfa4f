package navtree_test

import (
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
	"bionav/internal/workload"
)

var benchTree *navtree.Tree

// BenchmarkBuild times one navigation-tree build. "generated" is a
// 300-citation result over a 5,000-concept generated hierarchy; "tableI"
// cycles through the ten Table I query results over the full-scale
// 48,000-concept workload, the trees the server builds on a nav-cache miss.
// This file is an external test package because workload imports navtree.
func BenchmarkBuild(b *testing.B) {
	b.Run("generated", func(b *testing.B) {
		tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 31, Nodes: 5000, TopLevel: 16, MaxDepth: 10})
		corp := corpus.Generate(tree, corpus.GenConfig{Seed: 6, Citations: 400, MeanConcepts: 90, FirstID: 1, YearLo: 2000, YearHi: 2008})
		results := corp.IDs()[:300]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchTree = navtree.Build(corp, results)
		}
	})
	b.Run("tableI", func(b *testing.B) {
		w, err := workload.Generate(workload.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		results := make([][]corpus.CitationID, len(w.Queries))
		for i, q := range w.Queries {
			results[i] = w.Dataset.Index.Search(q.Spec.Keyword)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchTree = navtree.Build(w.Dataset.Corpus, results[i%len(results)])
		}
	})
}
