package navigate

import (
	"fmt"
	"time"

	"bionav/internal/core"
	"bionav/internal/navtree"
)

// This file implements the evaluation harness of §VIII-A: a TOPDOWN oracle
// user who "always chooses the right node to expand in order to finally
// reveal the target concept". The simulation drives a Session until the
// target concept becomes visible and reports the paper's cost metrics.

// StepStat records one EXPAND of a simulation, feeding Figs. 10 and 11.
type StepStat struct {
	Node        navtree.NodeID // expanded component root
	Revealed    int            // concepts revealed by this EXPAND
	ReducedSize int            // |T_R| for Heuristic-ReducedOpt; 0 otherwise
	Elapsed     time.Duration  // policy decision time (Opt-EdgeCut dominated)
}

// SimResult is the outcome of one simulated navigation.
type SimResult struct {
	Policy  string
	Target  navtree.NodeID
	Cost    Cost       // Navigation() is the Fig. 8 metric
	Steps   []StepStat // one per EXPAND, in order
	Reached bool
}

// TotalElapsed sums the per-EXPAND decision times.
func (r SimResult) TotalElapsed() time.Duration {
	var d time.Duration
	for _, s := range r.Steps {
		d += s.Elapsed
	}
	return d
}

// AvgElapsed is the Fig. 10 metric: mean decision time per EXPAND.
func (r SimResult) AvgElapsed() time.Duration {
	if len(r.Steps) == 0 {
		return 0
	}
	return r.TotalElapsed() / time.Duration(len(r.Steps))
}

// reducedSizer is implemented by policies that build a reduced tree; the
// simulation records |T_R| for the execution-time analysis of Fig. 11.
type reducedSizer interface {
	LastReducedSize(at *core.ActiveTree, root navtree.NodeID) (int, error)
}

// solveEvery hides a policy's cut key, so a session over it neither reads
// nor fills its tree's cut memo.
type solveEvery struct{ core.Policy }

// CutKey implements core.Policy.
func (solveEvery) CutKey() any { return nil }

// Clock supplies wall-clock readings for the simulation's per-EXPAND
// timing instrumentation. Library code never reads the wall clock itself
// (the determinism discipline DET01 in docs/STATIC_ANALYSIS.md); callers
// who want real timings inject time.Now from package main. A nil Clock
// leaves every StepStat.Elapsed zero.
type Clock func() time.Time

// Simulate runs the TOPDOWN oracle user against policy until every target
// concept is visible, then (optionally) performs SHOWRESULTS on the last
// one. With several targets — the paper's §I example reaches both "Cell
// Proliferation" and "Apoptosis" in one navigation (19 concepts over 5
// EXPANDs) — the oracle repeatedly expands the visible component hiding
// the first unreached target, and cost accumulates across the whole
// navigation. SimResult.Target reports the last target. The maximum number
// of EXPANDs is bounded by the navigation-tree size; a policy that fails
// to make progress returns an error. Per-EXPAND decision times are
// measured through clock (nil disables timing).
func Simulate(nav *navtree.Tree, policy core.Policy, targets []navtree.NodeID, showResults bool, clock Clock) (SimResult, error) {
	if len(targets) == 0 {
		return SimResult{}, fmt.Errorf("navigate: no targets")
	}
	for _, target := range targets {
		if target <= 0 || target >= nav.Len() {
			return SimResult{}, fmt.Errorf("navigate: target %d out of range", target)
		}
	}
	target := targets[len(targets)-1]
	s := NewSession(nav, policy)
	// The oracle times each decision (Figs. 10 and 11), so its session
	// solves every EXPAND: hiding the policy's cut key keeps the tree's
	// cut memo out of it.
	s.policy = solveEvery{policy}
	res := SimResult{Policy: policy.Name(), Target: target}

	maxSteps := 2*nav.Len() + 16
	for step := 0; step < maxSteps; step++ {
		// The oracle works toward the first still-hidden target.
		pending := navtree.NodeID(-1)
		for _, tgt := range targets {
			if !s.at.IsVisible(tgt) {
				pending = tgt
				break
			}
		}
		if pending == -1 {
			res.Reached = true
			break
		}
		root := s.at.ComponentOf(pending)
		var reduced int
		if rs, ok := policy.(reducedSizer); ok {
			if n, err := rs.LastReducedSize(s.at, root); err == nil {
				reduced = n
			}
		}
		var start time.Time
		if clock != nil {
			start = clock()
		}
		revealed, err := s.Expand(root)
		var elapsed time.Duration
		if clock != nil {
			elapsed = clock().Sub(start)
		}
		if err != nil {
			return res, fmt.Errorf("navigate: simulate step %d: %w", step, err)
		}
		res.Steps = append(res.Steps, StepStat{
			Node:        root,
			Revealed:    len(revealed),
			ReducedSize: reduced,
			Elapsed:     elapsed,
		})
	}
	if !res.Reached {
		return res, fmt.Errorf("navigate: target %d not reached after %d EXPANDs", target, maxSteps)
	}
	if showResults {
		if _, err := s.ShowResults(target); err != nil {
			return res, err
		}
	}
	res.Cost = s.Cost()
	return res, nil
}
