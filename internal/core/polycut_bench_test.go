package core

import (
	"context"
	"testing"
	"time"

	"bionav/internal/faults"
)

// BenchmarkPolyCut times the full-horizon polynomial DP (the unbounded
// anytime solve) on the w8d3 stress shape and the prothymosin-scale
// tree, next to BenchmarkHeuristicChooseCut for a like-for-like policy
// comparison.
func BenchmarkPolyCut(b *testing.B) {
	run := func(b *testing.B, at *ActiveTree, model CostModel) {
		root := at.Nav().Root()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := AnytimeSolve(context.Background(), at, root, 10, model)
			if err != nil {
				b.Fatal(err)
			}
			if res.Grade != GradeFull {
				b.Fatalf("unbounded solve graded %v", res.Grade)
			}
		}
	}
	b.Run("w8d3", func(b *testing.B) { run(b, w8d3ActiveTree(b), w8d3Model) })
	b.Run("prothymosin", func(b *testing.B) { run(b, benchTree(b), DefaultCostModel()) })
}

// BenchmarkAnytimeVsStatic records the issue's acceptance numbers: on
// w8d3 the solve is cut off at fixed checkpoint budgets — deterministic
// stand-ins for wall-clock deadlines, injected through the PolyCut
// failpoint — and each interrupted anytime cut is scored against the
// static all-children cut and the unbounded Heuristic-ReducedOpt cut,
// everything under one yardstick, the full-horizon PolyCut evaluator.
//
//	cost-vs-static-x    static cost / anytime cost (> 1.0 required —
//	                    strictly better than degrading to static)
//	cost-vs-heuristic-x anytime cost / heuristic cost (≤ 1.05 required)
//
// Arms: first-useful is the tightest budget that yields an anytime-grade
// cut; half-budget sits halfway between it and a full solve's demand. The
// ratios are computed once by hand — like BenchmarkSolveComponentsSpeedup,
// nesting testing.Benchmark would self-deadlock — and the framework loop
// is left empty.
func BenchmarkAnytimeVsStatic(b *testing.B) {
	at := w8d3ActiveTree(b)
	root := at.Nav().Root()
	defer faults.Reset()

	solveAt := func(budget uint64) AnytimeResult {
		faults.Reset()
		faults.Arm(faults.SitePolyDP, faults.AfterN(budget), nil)
		res, err := AnytimeSolve(context.Background(), at, root, 10, w8d3Model)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Sweep checkpoint budgets for the two fixed deadlines: the first
	// interrupted-but-useful budget and the full solve's total demand.
	firstUseful, fullBudget := uint64(0), uint64(0)
	for n := uint64(0); n < 10000; n++ {
		res := solveAt(n)
		if res.Grade == GradeAnytime && firstUseful == 0 {
			firstUseful = n
		}
		if res.Grade == GradeFull {
			fullBudget = n
			break
		}
	}
	faults.Reset()
	if firstUseful == 0 || fullBudget == 0 {
		b.Fatalf("budget sweep incomplete: first-useful=%d full=%d", firstUseful, fullBudget)
	}

	h := &HeuristicReducedOpt{K: 10, Model: w8d3Model}
	heurCut, err := h.ChooseCut(context.Background(), at, root)
	if err != nil {
		b.Fatal(err)
	}
	staticCut, err := StaticAll{}.ChooseCut(context.Background(), at, root)
	if err != nil {
		b.Fatal(err)
	}

	s := fullSolver(b, at, root, 10, w8d3Model)
	if err := s.computeRound(s.maxDepth); err != nil {
		b.Fatal(err)
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
				b.Fatalf("cut child %d not a member", e.Child)
			}
			slots[i] = v
		}
		return s.evalCut(slots)
	}
	staticCost := eval(staticCut)
	heurCost := eval(heurCut)

	arms := []struct {
		name   string
		budget uint64
	}{
		{"first-useful", firstUseful},
		{"half-budget", firstUseful + (fullBudget-firstUseful)/2},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			res := solveAt(arm.budget)
			faults.Reset()
			if res.Grade == GradeStatic {
				b.Fatalf("budget %d degraded to static", arm.budget)
			}
			cost := eval(res.Cut)
			for i := 0; i < b.N; i++ {
				// One-shot measurement; nothing to repeat.
			}
			b.ReportMetric(staticCost/cost, "cost-vs-static-x")
			b.ReportMetric(cost/heurCost, "cost-vs-heuristic-x")
		})
	}
}

// BenchmarkAnytimeDeadline times AnytimeSolve under wall-clock deadlines
// on the prothymosin-scale tree. The solver polls ctx at checkpoint
// strides, so the latency it adds past the deadline is one stride plus
// the scheduler's timer delivery — on a single-core runner a solve
// shorter than the preemption quantum can finish before the timer
// goroutine runs at all; the recorded ns/op is the honest number.
func BenchmarkAnytimeDeadline(b *testing.B) {
	at := benchTree(b)
	root := at.Nav().Root()
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), d)
				res, err := AnytimeSolve(ctx, at, root, 10, DefaultCostModel())
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cut) == 0 {
					b.Fatal("empty cut")
				}
			}
		})
	}
}
