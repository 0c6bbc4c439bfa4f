// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VIII). Each Benchmark* corresponds to one table/figure (see DESIGN.md's
// experiment index); custom metrics report the paper-comparable quantities
// (navigation cost, improvement %, EXPAND counts) alongside wall time.
//
// Run with:
//
//	go test -bench=. -benchmem
package bionav_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"bionav/internal/core"
	"bionav/internal/experiments"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/obs"
	"bionav/internal/workload"
)

// benchWorkload synthesizes the Table I workload once per process at a
// benchmark-friendly scale (full result sizes, reduced hierarchy).
var benchWorkload = sync.OnceValues(func() (*workload.Workload, error) {
	cfg := workload.DefaultConfig()
	cfg.HierarchyNodes = 8000
	cfg.Background = 200
	for i := range cfg.Specs {
		cfg.Specs[i].MeanConcepts = 40
	}
	return workload.Generate(cfg)
})

// benchNavs builds (once) every query's navigation tree and target.
var benchNavs = sync.OnceValues(func() (map[string]navPair, error) {
	w, err := benchWorkload()
	if err != nil {
		return nil, err
	}
	out := make(map[string]navPair, len(w.Queries))
	for i := range w.Queries {
		q := &w.Queries[i]
		nav, target, err := w.NavTree(q)
		if err != nil {
			return nil, err
		}
		out[q.Spec.Keyword] = navPair{nav: nav, target: target}
	}
	return out, nil
})

type navPair struct {
	nav    *navtree.Tree
	target navtree.NodeID
}

func mustNavs(b *testing.B) map[string]navPair {
	b.Helper()
	navs, err := benchNavs()
	if err != nil {
		b.Fatal(err)
	}
	return navs
}

// runAll simulates the TOPDOWN oracle over every workload query and
// returns total navigation cost and EXPAND count.
func runAll(b *testing.B, policy core.Policy) (cost, expands int) {
	b.Helper()
	for _, np := range mustNavs(b) {
		res, err := navigate.SimulateToTarget(np.nav, policy, np.target, false)
		if err != nil {
			b.Fatal(err)
		}
		cost += res.Cost.Navigation()
		expands += res.Cost.Expands
	}
	return cost, expands
}

// BenchmarkTableIWorkload regenerates Table I: workload synthesis plus the
// navigation-tree statistics of every query.
func BenchmarkTableIWorkload(b *testing.B) {
	w, err := benchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	totalSize := 0
	for i := 0; i < b.N; i++ {
		totalSize = 0
		for j := range w.Queries {
			nav, _, err := w.NavTree(&w.Queries[j])
			if err != nil {
				b.Fatal(err)
			}
			totalSize += nav.ComputeStats().Size
		}
	}
	b.ReportMetric(float64(totalSize)/float64(len(w.Queries)), "navtree-nodes/query")
}

// BenchmarkFig8NavigationCost regenerates Fig. 8: BioNav vs static
// navigation cost over the whole workload.
func BenchmarkFig8NavigationCost(b *testing.B) {
	mustNavs(b) // exclude setup
	b.ResetTimer()
	var bio, static int
	for i := 0; i < b.N; i++ {
		bio, _ = runAll(b, core.NewHeuristicReducedOpt())
		static, _ = runAll(b, core.StaticAll{})
	}
	b.ReportMetric(float64(bio), "bionav-cost")
	b.ReportMetric(float64(static), "static-cost")
	b.ReportMetric(100*(1-float64(bio)/float64(static)), "improvement-%")
}

// BenchmarkFig9ExpandActions regenerates Fig. 9: EXPAND counts per method.
func BenchmarkFig9ExpandActions(b *testing.B) {
	mustNavs(b)
	b.ResetTimer()
	var bioX, staticX int
	for i := 0; i < b.N; i++ {
		_, bioX = runAll(b, core.NewHeuristicReducedOpt())
		_, staticX = runAll(b, core.StaticAll{})
	}
	b.ReportMetric(float64(bioX), "bionav-expands")
	b.ReportMetric(float64(staticX), "static-expands")
}

// BenchmarkFig10ExpandTime regenerates Fig. 10: it measures the pure
// Heuristic-ReducedOpt decision time per EXPAND across the workload (the
// b.N loop times exactly the per-expansion algorithm work).
func BenchmarkFig10ExpandTime(b *testing.B) {
	navs := mustNavs(b)
	pol := core.NewHeuristicReducedOpt()
	b.ResetTimer()
	expands := 0
	for i := 0; i < b.N; i++ {
		expands = 0
		for _, np := range navs {
			res, err := navigate.SimulateToTarget(np.nav, pol, np.target, false)
			if err != nil {
				b.Fatal(err)
			}
			expands += len(res.Steps)
		}
	}
	b.ReportMetric(float64(expands), "expands/op")
}

// BenchmarkFig11ProthymosinPerExpand regenerates Fig. 11: the per-EXPAND
// sequence of the "prothymosin" navigation.
func BenchmarkFig11ProthymosinPerExpand(b *testing.B) {
	navs := mustNavs(b)
	np, ok := navs["prothymosin"]
	if !ok {
		b.Fatal("no prothymosin query")
	}
	pol := core.NewHeuristicReducedOpt()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := navigate.SimulateToTarget(np.nav, pol, np.target, false)
		if err != nil {
			b.Fatal(err)
		}
		steps = len(res.Steps)
	}
	b.ReportMetric(float64(steps), "expands")
}

// BenchmarkAblationReducedTreeBudget sweeps k (Ablation A).
func BenchmarkAblationReducedTreeBudget(b *testing.B) {
	for _, k := range []int{4, 8, 10, 12} {
		b.Run(benchName("k", k), func(b *testing.B) {
			mustNavs(b)
			pol := &core.HeuristicReducedOpt{K: k, Model: core.DefaultCostModel()}
			b.ResetTimer()
			var cost int
			for i := 0; i < b.N; i++ {
				cost, _ = runAll(b, pol)
			}
			b.ReportMetric(float64(cost), "nav-cost")
		})
	}
}

// BenchmarkAblationExpandCost sweeps the EXPAND cost constant (Ablation B).
func BenchmarkAblationExpandCost(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(benchName("K", k), func(b *testing.B) {
			mustNavs(b)
			model := core.DefaultCostModel()
			model.ExpandCost = float64(k)
			pol := &core.HeuristicReducedOpt{K: 10, Model: model}
			b.ResetTimer()
			var cost, expands int
			for i := 0; i < b.N; i++ {
				cost, expands = runAll(b, pol)
			}
			b.ReportMetric(float64(cost), "nav-cost")
			b.ReportMetric(float64(expands), "expands")
		})
	}
}

// BenchmarkAblationModelVariants compares the probability-model variants
// and baselines (Ablation C).
func BenchmarkAblationModelVariants(b *testing.B) {
	entOff := core.DefaultCostModel()
	entOff.UseEntropy = false
	discounted := core.DefaultCostModel()
	discounted.DiscountUpper = true
	variants := []struct {
		name   string
		policy core.Policy
	}{
		{"default", core.NewHeuristicReducedOpt()},
		{"entropy-off", &core.HeuristicReducedOpt{K: 10, Model: entOff}},
		{"discounted-upper", &core.HeuristicReducedOpt{K: 10, Model: discounted}},
		{"static-top10", core.StaticTopK{K: 10}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			mustNavs(b)
			b.ResetTimer()
			var cost int
			for i := 0; i < b.N; i++ {
				cost, _ = runAll(b, v.policy)
			}
			b.ReportMetric(float64(cost), "nav-cost")
		})
	}
}

// BenchmarkCachedVsPlainHeuristic compares full-navigation decision work
// with and without the §VI-B plan cache.
func BenchmarkCachedVsPlainHeuristic(b *testing.B) {
	navs := mustNavs(b)
	np := navs["prothymosin"]
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := navigate.SimulateToTarget(np.nav, core.NewHeuristicReducedOpt(), np.target, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := navigate.SimulateToTarget(np.nav, core.NewCachedHeuristic(), np.target, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentHarness times the full §VIII regeneration pipeline
// (everything cmd/bionav-experiments does at small scale).
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.HierarchyNodes = 8000
	cfg.Background = 100
	for i := range cfg.Specs {
		cfg.Specs[i].MeanConcepts = 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.All(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "=" + digits[v:v+1]
	}
	return prefix + "=" + digits[v/10:v/10+1] + digits[v%10:v%10+1]
}

// solveEvery hides a policy's cut key, so a session over it solves every
// EXPAND instead of taking cuts from its tree's cut memo: a benchmark that
// navigates one shared tree again and again keeps timing the solve.
type solveEvery struct{ core.Policy }

func (solveEvery) CutKey() any { return nil }

// BenchmarkExpandInstrumented measures the observability cost of the
// EXPAND hot path: the same full navigation once with an untraced
// context (every span call is a nil-receiver no-op) and once under an
// active root span recording the complete span tree. Every EXPAND solves
// (solveEvery), as the spans to time are the solve's. The traced vs
// untraced delta is the instrumentation overhead docs/OBSERVABILITY.md
// bounds at <5%.
func BenchmarkExpandInstrumented(b *testing.B) {
	navs := mustNavs(b)
	np, ok := navs["prothymosin"]
	if !ok {
		b.Fatal("no prothymosin query")
	}
	run := func(b *testing.B, traced bool) {
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var root *obs.Span
			if traced {
				root = obs.NewSpan("bench")
				ctx = obs.ContextWithSpan(ctx, root)
			}
			s := navigate.NewSession(np.nav, solveEvery{core.NewHeuristicReducedOpt()})
			for steps := 0; !s.Active().IsVisible(np.target); steps++ {
				if steps > np.nav.Len() {
					b.Fatal("target not reached")
				}
				if _, err := s.ExpandContext(ctx, s.Active().ComponentOf(np.target)); err != nil {
					b.Fatal(err)
				}
			}
			root.End()
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// BenchmarkBooleanQuery measures the boolean retrieval path on the
// workload corpus.
func BenchmarkBooleanQuery(b *testing.B) {
	w, err := benchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	ix := w.Dataset.Index
	q := "prothymosin OR (vardenafil AND context) NOT follistatin"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchBoolean(q); err != nil {
			b.Fatal(err)
		}
	}
}
