package navigate

import (
	"context"
	"testing"
	"time"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

// benchCorpus builds the session-replay workload: a 1500-concept
// hierarchy with enough annotated citations that every EXPAND that
// solves runs a full k-partition + DP.
func benchCorpus(b *testing.B) *corpus.Corpus {
	b.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 401, Nodes: 1500, TopLevel: 12, MaxDepth: 9})
	return corpus.Generate(tree, corpus.GenConfig{
		Seed: 408, Citations: 400, MeanConcepts: 40, FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
}

// benchNav builds the navigation tree over the whole corpus. Every call
// builds a new tree, whose cut memo starts empty.
func benchNav(b *testing.B, corp *corpus.Corpus) *navtree.Tree {
	b.Helper()
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		b.Fatal(err)
	}
	return nav
}

// replaySession expands the root and returns the session plus up to six
// revealed components worth expanding — the fixed EXPAND sequence every
// replay round repeats. The root expand itself stays on the undo stack
// for the whole benchmark: backtracking past it would tear down the very
// components the rounds revisit.
func replaySession(b *testing.B, nav *navtree.Tree) (*Session, []navtree.NodeID) {
	b.Helper()
	s := NewSession(nav, core.NewHeuristicReducedOpt())
	res, err := s.ExpandContext(context.Background(), nav.Root())
	if err != nil {
		b.Fatal(err)
	}
	var script []navtree.NodeID
	for _, r := range res.Revealed {
		if s.Active().ComponentSize(r) >= 2 {
			script = append(script, r)
			if len(script) == 6 {
				break
			}
		}
	}
	if len(script) < 3 {
		b.Fatalf("workload too shallow: script %v", script)
	}
	return s, script
}

// runScript plays the EXPAND sequence forward; rewind undoes it.
func runScript(b *testing.B, s *Session, script []navtree.NodeID) {
	b.Helper()
	for _, n := range script {
		if _, err := s.ExpandContext(context.Background(), n); err != nil {
			b.Fatal(err)
		}
	}
}

func rewind(b *testing.B, s *Session, steps int) {
	b.Helper()
	for i := 0; i < steps; i++ {
		if err := s.Backtrack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReplay times one round of EXPANDs over a session's
// first-level components. The warm arm BACKTRACKs them all and expands
// them again on one tree, so every re-EXPAND is answered from the tree's
// cut memo. The cold arm expands them on a freshly built tree each round,
// built and opened with the timer stopped, so every EXPAND solves; it has
// no BACKTRACKs to time.
func BenchmarkSessionReplay(b *testing.B) {
	corp := benchCorpus(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, script := replaySession(b, benchNav(b, corp))
			b.StartTimer()
			runScript(b, s, script)
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, script := replaySession(b, benchNav(b, corp))
		runScript(b, s, script)
		b.ReportAllocs()
		hits0 := memoHits.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rewind(b, s, len(script))
			runScript(b, s, script)
		}
		b.StopTimer()
		if hits := memoHits.Value() - hits0; hits < uint64(b.N*len(script)) {
			b.Fatalf("warm arm missed the memo: %d hits after %d rounds of %d", hits, b.N, len(script))
		}
	})
}

// BenchmarkSessionReplaySpeedup reports the cold-over-warm ratio of the
// replay round as speedup-x (the acceptance floor is 1.5). Timed by hand
// for the same reason as BenchmarkSolveComponentsSpeedup:
// testing.Benchmark cannot nest inside a running benchmark.
func BenchmarkSessionReplaySpeedup(b *testing.B) {
	corp := benchCorpus(b)
	const warmups, iters = 2, 10
	var cold time.Duration
	for i := 0; i < warmups+iters; i++ {
		s, script := replaySession(b, benchNav(b, corp))
		start := time.Now()
		runScript(b, s, script)
		if i >= warmups {
			cold += time.Since(start)
		}
	}
	s, script := replaySession(b, benchNav(b, corp))
	runScript(b, s, script)
	round := func() {
		rewind(b, s, len(script))
		runScript(b, s, script)
	}
	for i := 0; i < warmups; i++ {
		round()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		round()
	}
	warm := time.Since(start)
	for i := 0; i < b.N; i++ {
		// One-shot measurement; nothing to repeat.
	}
	b.ReportMetric(float64(cold)/float64(warm), "speedup-x")
}
