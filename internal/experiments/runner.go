package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/workload"
)

// Runner generates (once) the workload and lazily caches the per-query
// navigation simulations each experiment draws on. Navigation trees live in
// the same LRU cache type the server uses, keyed by normalized keyword.
type Runner struct {
	W *workload.Workload

	// Clock times policy decisions for Fig. 10/11. Left nil (e.g. in
	// tests) the experiments still run, with zero durations; the
	// bionav-experiments command injects time.Now.
	Clock navigate.Clock

	// Policy overrides the "BioNav" arm of every experiment; nil runs the
	// paper's Heuristic-ReducedOpt. The bionav-experiments command wires
	// its -policy flag here (core.PolicyByName).
	Policy core.Policy

	navs    *navtree.Cache
	targets map[string]navtree.NodeID
	sims    map[string]map[string]navigate.SimResult // policy → keyword → result
}

// NewRunner synthesizes the workload for cfg.
func NewRunner(cfg workload.Config) (*Runner, error) {
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return NewRunnerFor(w), nil
}

// NewRunnerFor wraps an already-built (e.g. loaded-from-disk) workload.
func NewRunnerFor(w *workload.Workload) *Runner {
	return &Runner{
		W:       w,
		navs:    navtree.NewCache(256),
		targets: make(map[string]navtree.NodeID),
		sims:    make(map[string]map[string]navigate.SimResult),
	}
}

// nav returns the (cached) navigation tree and target node for a query.
func (r *Runner) nav(q *workload.Query) (*navtree.Tree, navtree.NodeID, error) {
	kw := navtree.NormalizeQuery(q.Spec.Keyword)
	key := navtree.Key{Query: kw} // static dataset: epoch 0 throughout
	if t, ok := r.navs.Get(key); ok {
		return t, r.targets[kw], nil
	}
	t, target, err := r.W.NavTree(q)
	if err != nil {
		return nil, 0, err
	}
	r.navs.Add(key, t)
	r.targets[kw] = target
	return t, target, nil
}

// simulate returns the (cached) TOPDOWN oracle run of policy on a query.
func (r *Runner) simulate(q *workload.Query, policy core.Policy) (navigate.SimResult, error) {
	byKW := r.sims[policy.Name()]
	if byKW == nil {
		byKW = make(map[string]navigate.SimResult)
		r.sims[policy.Name()] = byKW
	}
	if res, ok := byKW[q.Spec.Keyword]; ok {
		return res, nil
	}
	nav, target, err := r.nav(q)
	if err != nil {
		return navigate.SimResult{}, err
	}
	res, err := navigate.Simulate(nav, policy, []navtree.NodeID{target}, false, r.Clock)
	if err != nil {
		return navigate.SimResult{}, fmt.Errorf("%s on %q: %w", policy.Name(), q.Spec.Keyword, err)
	}
	byKW[q.Spec.Keyword] = res
	return res, nil
}

// bioNavPolicy is the policy behind each experiment's "BioNav" arm: the
// Runner's injected override when set, else the paper's default.
func (r *Runner) bioNavPolicy() core.Policy {
	if r.Policy != nil {
		return r.Policy
	}
	return core.NewHeuristicReducedOpt()
}

// TableI reports the workload characteristics exactly as the paper's
// Table I: query-result size, navigation-tree shape, duplicate counts, and
// target-concept statistics.
func (r *Runner) TableI() (*Table, error) {
	t := &Table{
		ID:    "Table I",
		Title: "Query workload",
		Columns: []string{
			"Keyword(s)", "# Citations", "NavTree Size", "Max Width", "Height",
			"Cit. w/ Dup", "Target Concept", "Level", "L(n)", "cnt(n)",
		},
	}
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		nav, target, err := r.nav(q)
		if err != nil {
			return nil, err
		}
		s := nav.ComputeStats()
		t.Rows = append(t.Rows, []string{
			q.Spec.Keyword,
			fmt.Sprint(nav.DistinctTotal()),
			fmt.Sprint(s.Size),
			fmt.Sprint(s.MaxLevelWidth),
			fmt.Sprint(s.Height),
			fmt.Sprint(s.TotalAttached),
			q.Spec.TargetLabel,
			fmt.Sprint(r.W.Dataset.Tree.Node(q.Target).Depth),
			fmt.Sprint(nav.NumResults(target)),
			fmt.Sprint(q.Spec.TargetGlobal),
		})
	}
	return t, nil
}

// Fig8 reports the overall navigation cost (# concepts revealed + # EXPAND
// actions) of BioNav vs static navigation per query, with the percentage
// improvement. The paper reports an 85% average improvement with the
// minimum (67%) on "ice nucleation".
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		ID:      "Fig. 8",
		Title:   "Navigation cost: BioNav (Heuristic-ReducedOpt) vs static navigation",
		Columns: []string{"Keyword(s)", "Static", "BioNav", "Improvement"},
	}
	bio := r.bioNavPolicy()
	var sumImp float64
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		b, err := r.simulate(q, bio)
		if err != nil {
			return nil, err
		}
		s, err := r.simulate(q, core.StaticAll{})
		if err != nil {
			return nil, err
		}
		imp := 100 * (1 - float64(b.Cost.Navigation())/float64(s.Cost.Navigation()))
		sumImp += imp
		t.Rows = append(t.Rows, []string{
			q.Spec.Keyword,
			fmt.Sprint(s.Cost.Navigation()),
			fmt.Sprint(b.Cost.Navigation()),
			fmt.Sprintf("%.0f%%", imp),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("average improvement: %.0f%% (paper: 85%%)",
		sumImp/float64(len(r.W.Queries))))
	return t, nil
}

// Fig9 reports the number of EXPAND actions per query for both methods;
// the paper observes they stay close (BioNav's wins come from revealing
// fewer concepts, not fewer clicks), with "ice nucleation" worst at 8 vs 3.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{
		ID:      "Fig. 9",
		Title:   "EXPAND actions: BioNav vs static navigation",
		Columns: []string{"Keyword(s)", "Static", "BioNav"},
	}
	bio := r.bioNavPolicy()
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		b, err := r.simulate(q, bio)
		if err != nil {
			return nil, err
		}
		s, err := r.simulate(q, core.StaticAll{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.Spec.Keyword,
			fmt.Sprint(s.Cost.Expands),
			fmt.Sprint(b.Cost.Expands),
		})
	}
	return t, nil
}

// Fig10 reports the mean Heuristic-ReducedOpt execution time per EXPAND
// for each query; the shape to reproduce is that time tracks the reduced
// tree size |T_R|, not the raw component size.
func (r *Runner) Fig10() (*Table, error) {
	t := &Table{
		ID:      "Fig. 10",
		Title:   "Heuristic-ReducedOpt mean execution time per EXPAND",
		Columns: []string{"Keyword(s)", "EXPANDs", "Avg |T_R|", "Avg time"},
	}
	bio := r.bioNavPolicy()
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		b, err := r.simulate(q, bio)
		if err != nil {
			return nil, err
		}
		var reduced int
		for _, st := range b.Steps {
			reduced += st.ReducedSize
		}
		avgReduced := 0.0
		if len(b.Steps) > 0 {
			avgReduced = float64(reduced) / float64(len(b.Steps))
		}
		t.Rows = append(t.Rows, []string{
			q.Spec.Keyword,
			fmt.Sprint(b.Cost.Expands),
			fmt.Sprintf("%.1f", avgReduced),
			formatDuration(b.AvgElapsed()),
		})
	}
	return t, nil
}

// Fig11 reports the per-EXPAND execution time of the "prothymosin" query
// with the partition count |T_R| of each step, mirroring the paper's
// observation that time follows reduced-tree size and shrinks as the user
// descends into narrower regions.
func (r *Runner) Fig11() (*Table, error) {
	q, ok := r.W.QueryByKeyword("prothymosin")
	if !ok {
		return nil, fmt.Errorf("experiments: workload has no prothymosin query")
	}
	b, err := r.simulate(q, r.bioNavPolicy())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig. 11",
		Title:   `Heuristic-ReducedOpt per-EXPAND execution time for "prothymosin"`,
		Columns: []string{"EXPAND", "|T_R| (partitions)", "Revealed", "Time"},
	}
	for i, st := range b.Steps {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%s", i+1, ordinal(i+1)),
			fmt.Sprint(st.ReducedSize),
			fmt.Sprint(st.Revealed),
			formatDuration(st.Elapsed),
		})
	}
	return t, nil
}

// Intro reproduces the §I running example on "prothymosin": the navigation
// tree blow-up (313 distinct citations on thousands of attached copies) and
// the cost of reaching the target concept with both methods.
func (r *Runner) Intro() (*Table, error) {
	q, ok := r.W.QueryByKeyword("prothymosin")
	if !ok {
		return nil, fmt.Errorf("experiments: workload has no prothymosin query")
	}
	nav, target, err := r.nav(q)
	if err != nil {
		return nil, err
	}
	s := nav.ComputeStats()

	// The paper's running example reaches TWO concepts in one navigation
	// (Cell Proliferation and Apoptosis): replay that with the target plus
	// the query's second research-area focus.
	targets := []navtree.NodeID{target}
	for _, f := range q.Foci[1:] {
		if n, ok := nav.NodeByConcept(f); ok {
			targets = append(targets, n)
			break
		}
	}
	bio, err := navigate.Simulate(nav, r.bioNavPolicy(), targets, false, r.Clock)
	if err != nil {
		return nil, err
	}
	static, err := navigate.Simulate(nav, core.StaticAll{}, targets, false, r.Clock)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Intro",
		Title:   `§I running example: "prothymosin" (two target concepts, like the paper)`,
		Columns: []string{"Quantity", "Value", "Paper"},
		Rows: [][]string{
			{"distinct citations in result", fmt.Sprint(nav.DistinctTotal()), "313"},
			{"navigation-tree concept nodes", fmt.Sprint(s.Size), "3,940"},
			{"total attached citations (with duplicates)", fmt.Sprint(s.TotalAttached), "30,895"},
			{"target concepts navigated to", fmt.Sprint(len(targets)), "2"},
			{"concepts examined, static", fmt.Sprint(static.Cost.ConceptsRevealed), "123"},
			{"concepts examined, BioNav", fmt.Sprint(bio.Cost.ConceptsRevealed), "19"},
			{"EXPAND actions, static", fmt.Sprint(static.Cost.Expands), "5"},
			{"EXPAND actions, BioNav", fmt.Sprint(bio.Cost.Expands), "5"},
			{"L(target) at " + q.Spec.TargetLabel, fmt.Sprint(nav.NumResults(target)), "40"},
		},
	}
	return t, nil
}

// All runs every experiment in paper order and renders them to w.
func (r *Runner) All(w io.Writer) error {
	type gen struct {
		name string
		fn   func() (*Table, error)
	}
	gens := []gen{
		{"table1", r.TableI},
		{"intro", r.Intro},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"ablation-k", r.AblationK},
		{"ablation-expandcost", r.AblationExpandCost},
		{"ablation-model", r.AblationModel},
		{"ext-refinement", r.Refinement},
		{"ext-robustness", r.Robustness},
		{"ext-bushiness", r.Bushiness},
	}
	for _, g := range gens {
		t, err := g.fn()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if cols := ChartColumns(g.name); cols != nil {
			if err := RenderChart(w, t, cols); err != nil {
				return err
			}
		}
	}
	return nil
}

// Experiment runs one experiment by ID ("table1", "fig8", …).
func (r *Runner) Experiment(id string) (*Table, error) {
	switch id {
	case "table1":
		return r.TableI()
	case "intro":
		return r.Intro()
	case "fig8":
		return r.Fig8()
	case "fig9":
		return r.Fig9()
	case "fig10":
		return r.Fig10()
	case "fig11":
		return r.Fig11()
	case "ablation-k":
		return r.AblationK()
	case "ablation-expandcost":
		return r.AblationExpandCost()
	case "ablation-model":
		return r.AblationModel()
	case "ext-refinement":
		return r.Refinement()
	case "ext-robustness":
		return r.Robustness()
	case "ext-bushiness":
		return r.Bushiness()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want %v)", id, ExperimentIDs())
	}
}

// ExperimentIDs lists the valid Experiment identifiers.
func ExperimentIDs() []string {
	ids := []string{"table1", "intro", "fig8", "fig9", "fig10", "fig11",
		"ablation-k", "ablation-expandcost", "ablation-model",
		"ext-refinement", "ext-robustness", "ext-bushiness"}
	sort.Strings(ids)
	return ids
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}

func ordinal(n int) string {
	switch n {
	case 1:
		return "st"
	case 2:
		return "nd"
	case 3:
		return "rd"
	default:
		return "th"
	}
}
