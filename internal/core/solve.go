package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// ErrSolvePanic wraps a panic recovered from a per-component solve: the
// solving goroutine survives, the component reports the failure, and
// callers can degrade that component alone (navigate falls back to the
// static cut).
var ErrSolvePanic = errors.New("core: component solve panicked")

// ComponentCut is one component's outcome in a multi-component solve.
type ComponentCut struct {
	Root navtree.NodeID
	Cut  []Edge
	Err  error
}

// SolveComponents runs policy.ChooseCut for every listed component root.
// Each component's k-partition + DP reads only its own subtree of the
// active tree, so the solves are independent: the first runs on the
// calling goroutine, and up to GOMAXPROCS-1 more goroutines take the
// rest by an atomic index (none start for a single component). Results
// come back in ascending component-root order regardless of completion
// order, so the merge is deterministic. Per-component failures — context
// cancellation, injected faults, even a panicking solve — land in that
// component's Err and never affect sibling components.
//
// The policy must be safe for concurrent ChooseCut calls on the same
// active tree; the shipped stateless policies (HeuristicReducedOpt,
// OptEdgeCutPolicy, StaticAll, StaticTopK) are, because ChooseCut only
// reads the tree and all scratch space is pooled per goroutine.
// CachedHeuristic retains a per-session plan and is not.
func SolveComponents(ctx context.Context, at *ActiveTree, policy Policy, roots []navtree.NodeID) []ComponentCut {
	ordered := append([]navtree.NodeID(nil), roots...)
	sort.Ints(ordered)
	out := make([]ComponentCut, len(ordered))
	solve := func(i int) {
		out[i].Root = ordered[i]
		defer func() {
			if r := recover(); r != nil {
				out[i].Cut = nil
				out[i].Err = fmt.Errorf("%w: component %d: %v", ErrSolvePanic, ordered[i], r)
			}
		}()
		stop := obs.Time(solveSeconds)
		defer stop()
		out[i].Cut, out[i].Err = policy.ChooseCut(ctx, at, ordered[i])
	}
	// Index 0 is the caller's; next hands out the rest.
	var next atomic.Int64
	rest := func() {
		for i := int(next.Add(1)); i < len(ordered); i = int(next.Add(1)) {
			solve(i)
		}
	}
	var wg sync.WaitGroup
	for range min(len(ordered), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); rest() }()
	}
	if len(ordered) > 0 {
		solve(0)
	}
	rest()
	wg.Wait()
	return out
}
