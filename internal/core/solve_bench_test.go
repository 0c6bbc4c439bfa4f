package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

// solveBenchState is the w8d3 batch workload: a first-level
// EXPAND frontier of ~32 independent components, each shaped like the
// w8d3 stress tree (8 chains of depth 3 under the component root), with
// enough annotated citations that Heuristic-ReducedOpt runs a full-width
// k-partition + DP per component.
type solveBenchState struct {
	at     *ActiveTree
	roots  []navtree.NodeID
	policy Policy
}

func solveBench(b *testing.B) *solveBenchState {
	b.Helper()
	hb := hierarchy.NewBuilder("MESH")
	for head := 0; head < 32; head++ {
		h := hb.Add(0, fmt.Sprintf("head %d", head))
		for chain := 0; chain < 8; chain++ {
			p := h
			for d := 0; d < 3; d++ {
				p = hb.Add(p, fmt.Sprintf("node %d.%d.%d", head, chain, d))
			}
		}
	}
	tree, err := hb.Build()
	if err != nil {
		b.Fatal(err)
	}
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 93, Citations: 2000, MeanConcepts: 10, FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	at := NewActiveTree(nav)
	if _, err := expandStatic(at, nav.Root()); err != nil {
		b.Fatal(err)
	}
	var roots []navtree.NodeID
	for _, r := range at.VisibleRoots() {
		if r != nav.Root() && at.ComponentSize(r) > 1 {
			roots = append(roots, r)
		}
	}
	if len(roots) < 16 {
		b.Fatalf("only %d expandable components", len(roots))
	}
	// The paper's K=10: each component reduces to 10 supernodes before the
	// DP. (Larger K explodes the DP's citation-set state space — the point
	// of the reduction — and would swamp the fan-out being measured.)
	return &solveBenchState{at: at, roots: roots, policy: NewHeuristicReducedOpt()}
}

// stallPolicy adds a fixed per-component stall before delegating,
// modeling the per-component citation-metadata fetch an EXPAND pays when
// result details live in an external store (the paper's MEDLINE backend).
// The stall is I/O-shaped — it sleeps, it does not spin — so concurrency
// hides it even on a single-core runner; the dp-* arms below measure the
// pure-CPU story with no modeled latency.
type stallPolicy struct {
	inner Policy
	d     time.Duration
}

func (p stallPolicy) Name() string { return "stall+" + p.inner.Name() }

// CutKey is nil: a shared cut would skip the stall being measured.
func (p stallPolicy) CutKey() any { return nil }

func (p stallPolicy) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	t := time.NewTimer(p.d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.inner.ChooseCut(ctx, at, root)
}

// solveSerial is the reference arm: a plain loop of ChooseCut over the
// roots on the calling goroutine.
func solveSerial(b *testing.B, st *solveBenchState, policy Policy) {
	for _, r := range st.roots {
		if _, err := policy.ChooseCut(context.Background(), st.at, r); err != nil {
			b.Fatal(err)
		}
	}
}

// solveParallel is SolveComponents over the roots, fanned across up to
// GOMAXPROCS goroutines.
func solveParallel(b *testing.B, st *solveBenchState, policy Policy) {
	for _, cc := range SolveComponents(context.Background(), st.at, policy, st.roots) {
		if cc.Err != nil {
			b.Fatal(cc.Err)
		}
	}
}

func benchSolve(b *testing.B, st *solveBenchState, policy Policy, run func(*testing.B, *solveBenchState, Policy)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, st, policy)
	}
}

// BenchmarkSolveComponents times one batch EXPAND's solves over the w8d3
// frontier: the serial arms are a plain ChooseCut loop, the parallel4
// arms SolveComponents, which fans out across GOMAXPROCS goroutines (four
// in bench-json's GOMAXPROCS=4 pass; at GOMAXPROCS=1 it is the serial
// loop). The dp arms are pure CPU (parallel wins only with real cores);
// the expand arms include a 1ms modeled per-component fetch stall (see
// stallPolicy), where the fan-out wins by overlapping the waits.
func BenchmarkSolveComponents(b *testing.B) {
	st := solveBench(b)
	stalled := stallPolicy{inner: st.policy, d: time.Millisecond}
	b.Run("w8d3-dp/serial", func(b *testing.B) { benchSolve(b, st, st.policy, solveSerial) })
	b.Run("w8d3-dp/parallel4", func(b *testing.B) { benchSolve(b, st, st.policy, solveParallel) })
	b.Run("w8d3-expand/serial", func(b *testing.B) { benchSolve(b, st, stalled, solveSerial) })
	b.Run("w8d3-expand/parallel4", func(b *testing.B) { benchSolve(b, st, stalled, solveParallel) })
}

// BenchmarkSolveComponentsSpeedup reports parallel-over-serial ratios as
// metrics: speedup-x for the latency-inclusive workload and dp-speedup-x
// for the pure-CPU one (1.0 at GOMAXPROCS=1, ≥1.8 expected at
// GOMAXPROCS=4 with real cores — `make bench-json` records both). The
// arms are timed by hand because testing.Benchmark cannot be nested
// inside a running benchmark (it self-deadlocks on the package's global
// benchmark lock).
func BenchmarkSolveComponentsSpeedup(b *testing.B) {
	st := solveBench(b)
	stalled := stallPolicy{inner: st.policy, d: time.Millisecond}
	const warmups, iters = 2, 12
	arm := func(policy Policy, run func(*testing.B, *solveBenchState, Policy)) float64 {
		for i := 0; i < warmups; i++ {
			run(b, st, policy)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			run(b, st, policy)
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	speedup := arm(stalled, solveSerial) / arm(stalled, solveParallel)
	dpSpeedup := arm(st.policy, solveSerial) / arm(st.policy, solveParallel)
	for i := 0; i < b.N; i++ {
		// The measurement above is one-shot; the framework loop has
		// nothing left to repeat.
	}
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(dpSpeedup, "dp-speedup-x")
}
