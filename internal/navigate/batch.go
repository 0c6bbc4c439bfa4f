package navigate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bionav/internal/check"
	"bionav/internal/core"
	"bionav/internal/faults"
	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// ComponentExpand is one component's outcome within a batch EXPAND.
type ComponentExpand struct {
	Node navtree.NodeID
	ExpandResult
}

// ExpandBatchContext performs EXPAND on several visible components in one
// action, fanning the policy's per-component solves across the pool (nil
// pool = serial, on the calling goroutine). The solves all run against
// the pre-batch active tree; that is sound because a component's cut
// depends only on its own members, and applying one component's cut
// never changes another component — so the batch is equivalent to
// expanding the same roots one at a time in ascending node order, which
// is exactly how the cuts are applied. Results come back ordered by node
// ID, the deterministic merge order.
//
// Degradation is per component: a solve cut short by ctx, killed by an
// injected fault, or lost to a worker panic falls back to the static
// all-children cut for that component only, flagged Degraded with the
// reason; sibling components keep their optimized cuts. A logical solve
// failure (not repairable by the fallback) aborts the whole batch before
// any cut is applied, leaving the session untouched.
//
// Each component charges the usual 1 + |revealed| cost and appends its
// own EXPAND log entry, so one BACKTRACK undoes one component, newest
// first.
func (s *Session) ExpandBatchContext(ctx context.Context, pool *core.Pool, nodes []navtree.NodeID) ([]ComponentExpand, error) {
	var sp *obs.Span
	ctx, sp = obs.StartChild(ctx, "expand_batch")
	defer sp.End()
	sp.SetAttr("components", len(nodes))
	sp.SetAttr("pool", int64(pool.Size()))

	seen := make(map[navtree.NodeID]bool, len(nodes))
	for _, n := range nodes {
		if n < 0 || n >= s.at.Nav().Len() {
			return nil, fmt.Errorf("navigate: batch EXPAND on unknown node %d", n)
		}
		if !s.at.IsVisible(n) {
			return nil, fmt.Errorf("navigate: batch EXPAND on hidden node %d", n)
		}
		if s.at.ComponentSize(n) < 2 {
			return nil, fmt.Errorf("navigate: batch EXPAND on singleton component %d", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("navigate: batch EXPAND lists component %d twice", n)
		}
		seen[n] = true
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("navigate: batch EXPAND with no components")
	}

	// Memo phase: components some EXPAND on the tree already solved skip
	// the policy (core's cut memo). A memoized cut that is not a valid
	// EdgeCut of its component is dropped, and the component is solved.
	// Roots are walked in ascending ID order, the order the solve merge
	// and the apply phase use.
	ordered := append([]navtree.NodeID(nil), nodes...)
	sort.Ints(ordered)
	cuts := make([]core.ComponentCut, len(ordered))
	keys := make([]core.MemoKey, len(ordered))
	shared := make([]bool, len(ordered))
	fromMemo := make([]bool, len(ordered))
	var misses []navtree.NodeID
	for i, n := range ordered {
		cuts[i].Root = n
		if keys[i], shared[i] = s.at.MemoKey(s.policy, n); shared[i] {
			cut, ok := s.at.MemoCut(keys[i])
			if ok && check.ValidateEdgeCut(s.at, n, cut) == nil {
				memoHits.Inc()
				cuts[i].Cut, fromMemo[i] = cut, true
				continue
			}
			if ok {
				s.at.Forget(keys[i])
			}
			memoMisses.Inc()
		}
		misses = append(misses, n)
	}
	sp.SetAttr("cache_hits", len(ordered)-len(misses))

	// Solve phase: read-only fan-out over the misses, merged by ascending
	// root ID (both ordered and the solve results are ascending).
	if len(misses) > 0 {
		solved := core.SolveComponents(ctx, pool, s.at, s.policy, misses)
		for i := range cuts {
			if !fromMemo[i] {
				cuts[i], solved = solved[0], solved[1:]
			}
		}
	}

	// Repair phase: degrade failed components to the static cut before
	// anything mutates, so an unrepairable failure leaves the session
	// exactly as it was. Solves that finished with a degraded grade
	// (anytime policies absorb expiry into the grade) are flagged but
	// their cuts stand.
	out := make([]ComponentExpand, len(cuts))
	degraded := 0
	for i, cc := range cuts {
		out[i].Node = cc.Root
		if cc.Err == nil {
			if out[i].Grade = cc.Grade; cc.Grade != core.GradeFull {
				out[i].Degraded = true
				out[i].Reason = cc.Reason
				degraded++
			}
			continue
		}
		if !isDegradableErr(ctx, cc.Err) {
			return nil, fmt.Errorf("navigate: batch EXPAND component %d: %w", cc.Root, cc.Err)
		}
		out[i].Grade = core.GradeStatic
		out[i].Degraded = true
		out[i].Reason = reasonFor(ctx, cc.Err)
		degraded++
		// The fallback must not inherit the expired deadline or the armed
		// failpoint outcome that triggered it: StaticAll is a plain child
		// walk.
		//lint:ignore CTX01 degradation path must not inherit the expired deadline that triggered it
		cut, err := core.StaticAll{}.ChooseCut(context.Background(), s.at, cc.Root)
		if err != nil {
			return nil, fmt.Errorf("navigate: degraded batch EXPAND fallback for %d: %w", cc.Root, err)
		}
		cuts[i].Cut = cut
	}
	sp.SetAttr("degraded", degraded)

	// Apply phase: serial, in ascending root order. Cuts were chosen
	// against the pre-batch tree; they stay valid because each one touches
	// only its own component. Full-grade solves join the memo once they
	// apply.
	for i, cc := range cuts {
		check.EdgeCut(s.at, cc.Root, cc.Cut)
		revealed, err := s.at.Expand(cc.Root, cc.Cut)
		if err != nil {
			return nil, fmt.Errorf("navigate: batch EXPAND apply on %d: %w", cc.Root, err)
		}
		if shared[i] && !fromMemo[i] && out[i].Grade == core.GradeFull {
			s.at.Memoize(keys[i], cc.Cut)
		}
		s.expanded(cc.Root, revealed)
		out[i].Revealed = revealed
	}
	return out, nil
}

// isDegradableErr reports whether a batch solve failure can be repaired
// by the static fallback: a cancellation (same rule as the single-EXPAND
// path), an armed failpoint firing mid-solve, or a worker panic the pool
// contained. Logical failures stay fatal.
func isDegradableErr(ctx context.Context, err error) bool {
	return isContextErr(ctx, err) ||
		errors.Is(err, faults.ErrInjected) ||
		errors.Is(err, core.ErrSolvePanic)
}
