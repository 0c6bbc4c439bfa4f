package experiments

import (
	"fmt"
	"runtime"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
)

// The ablation experiments re-run the Fig. 8 pipeline under varied design
// choices that the paper calls out: the reduced-tree budget k (§VI-B fixes
// k = 10 as the real-time limit), the EXPAND-action cost constant K (§III:
// "increasing this cost leads to more concepts revealed for each EXPAND"),
// and the probability-model components reconstructed in DESIGN.md §4.

// aggregate runs one policy configuration over every query and returns
// total navigation cost and total EXPAND actions. Queries are simulated
// concurrently — ablations report only counts (no timing columns), so
// parallel wall-clock noise is harmless, and a sweep over five settings
// would otherwise dominate the harness runtime. Policies may be stateful
// (CachedHeuristic), so every goroutine gets its own instance from mk;
// name keys the result cache.
func (r *Runner) aggregate(name string, mk func() core.Policy) (cost, expands, revealed int, err error) {
	// Navigation trees are shared state; build them serially first.
	for i := range r.W.Queries {
		if _, _, err := r.nav(&r.W.Queries[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	type outcome struct {
		kw  string
		res navigate.SimResult
		err error
	}
	results := make(chan outcome, len(r.W.Queries))
	sem := make(chan struct{}, maxParallel())
	launched := 0
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		// Reuse cached runs on the calling goroutine; only cold runs go
		// parallel.
		if byKW := r.sims[name]; byKW != nil {
			if res, ok := byKW[q.Spec.Keyword]; ok {
				cost += res.Cost.Navigation()
				expands += res.Cost.Expands
				revealed += res.Cost.ConceptsRevealed
				continue
			}
		}
		launched++
		// Resolved on the calling goroutine: the serial warm-up above
		// guarantees a cache hit, and no goroutine mutates the cache.
		nav, target, _ := r.nav(q)
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			res, simErr := navigate.Simulate(nav, mk(), []navtree.NodeID{target}, false, nil)
			results <- outcome{kw: q.Spec.Keyword, res: res, err: simErr}
		}()
	}
	for i := 0; i < launched; i++ {
		o := <-results
		if o.err != nil {
			if err == nil {
				err = fmt.Errorf("%s on %q: %w", name, o.kw, o.err)
			}
			continue
		}
		r.cacheSim(name, o.kw, o.res)
		cost += o.res.Cost.Navigation()
		expands += o.res.Cost.Expands
		revealed += o.res.Cost.ConceptsRevealed
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return cost, expands, revealed, nil
}

func (r *Runner) cacheSim(name, kw string, res navigate.SimResult) {
	byKW := r.sims[name]
	if byKW == nil {
		byKW = make(map[string]navigate.SimResult)
		r.sims[name] = byKW
	}
	byKW[kw] = res
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// AblationK sweeps the reduced-tree budget k.
func (r *Runner) AblationK() (*Table, error) {
	t := &Table{
		ID:      "Ablation A",
		Title:   "Reduced-tree budget k (paper fixes k = 10)",
		Columns: []string{"k", "Total nav cost", "EXPANDs", "Concepts revealed"},
	}
	for _, k := range []int{4, 6, 8, 10, 12} {
		k := k
		cost, expands, revealed, err := r.aggregate(fmt.Sprintf("hro-k%d", k), func() core.Policy {
			return &core.HeuristicReducedOpt{K: k, Model: core.DefaultCostModel()}
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(cost), fmt.Sprint(expands), fmt.Sprint(revealed),
		})
	}
	return t, nil
}

// AblationExpandCost sweeps the EXPAND cost constant K of the cost model.
func (r *Runner) AblationExpandCost() (*Table, error) {
	t := &Table{
		ID:      "Ablation B",
		Title:   "EXPAND-action cost constant K (paper: 1; higher K reveals more per EXPAND)",
		Columns: []string{"K", "Total nav cost", "EXPANDs", "Concepts revealed", "Revealed/EXPAND"},
	}
	for _, k := range []float64{0.5, 1, 2, 4, 8} {
		model := core.DefaultCostModel()
		model.ExpandCost = k
		cost, expands, revealed, err := r.aggregate(fmt.Sprintf("hro-K%g", k), func() core.Policy {
			return &core.HeuristicReducedOpt{K: 10, Model: model}
		})
		if err != nil {
			return nil, err
		}
		perExpand := 0.0
		if expands > 0 {
			perExpand = float64(revealed) / float64(expands)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", k), fmt.Sprint(cost), fmt.Sprint(expands),
			fmt.Sprint(revealed), fmt.Sprintf("%.2f", perExpand),
		})
	}
	t.Notes = append(t.Notes,
		"the paper predicts concepts revealed per EXPAND grows with K")
	return t, nil
}

// AblationModel compares probability-model variants and baselines.
func (r *Runner) AblationModel() (*Table, error) {
	t := &Table{
		ID:      "Ablation C",
		Title:   "Cost-model variants and baselines (total over the workload)",
		Columns: []string{"Variant", "Total nav cost", "EXPANDs", "Concepts revealed"},
	}
	entOff := core.DefaultCostModel()
	entOff.UseEntropy = false
	discounted := core.DefaultCostModel()
	discounted.DiscountUpper = true
	variants := []struct {
		label string
		key   string
		mk    func() core.Policy
	}{
		{"BioNav (default)", "hro-default", func() core.Policy { return core.NewHeuristicReducedOpt() }},
		{"BioNav, cached plans (§VI-B)", "hro-cached", func() core.Policy { return core.NewCachedHeuristic() }},
		{"BioNav, entropy off", "hro-entoff", func() core.Policy { return &core.HeuristicReducedOpt{K: 10, Model: entOff} }},
		{"BioNav, pX-discounted upper", "hro-discup", func() core.Policy { return &core.HeuristicReducedOpt{K: 10, Model: discounted} }},
		{"Static (all children)", "Static", func() core.Policy { return core.StaticAll{} }},
		{"Static top-10 + more…", "Static-Top10", func() core.Policy { return core.StaticTopK{K: 10} }},
	}
	for _, v := range variants {
		cost, expands, revealed, err := r.aggregate(v.key, v.mk)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.label, fmt.Sprint(cost), fmt.Sprint(expands), fmt.Sprint(revealed),
		})
	}
	return t, nil
}
