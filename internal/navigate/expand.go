package navigate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"bionav/internal/check"
	"bionav/internal/core"
	"bionav/internal/faults"
	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// ComponentExpand is one component's outcome within an EXPAND.
type ComponentExpand struct {
	Node navtree.NodeID
	ExpandResult
}

// ExpandContext is Expand with a computation bound: the context caps the
// policy's EdgeCut optimization (the Opt-EdgeCut DP checks it
// mid-search). It is the one-component EXPAND, solved on the calling
// goroutine; ExpandBatchContext documents the rules every EXPAND follows.
func (s *Session) ExpandContext(ctx context.Context, node navtree.NodeID) (ExpandResult, error) {
	one := [1]compExpand{{ComponentExpand: ComponentExpand{Node: node}}}
	if err := s.expand(ctx, one[:]); err != nil {
		return ExpandResult{}, err
	}
	return one[0].ExpandResult, nil
}

// ExpandBatchContext performs EXPAND on several visible components in one
// action, fanning the policy's per-component solves out across
// goroutines (core.SolveComponents; a lone component solves on the
// calling goroutine). The solves all run against the pre-EXPAND active
// tree; that is sound because a component's cut depends only on its own
// members, and applying one component's cut never changes another
// component — so the batch is equivalent to expanding the same roots one
// at a time in ascending node order, which is exactly how the cuts are
// applied. Results come back ordered by node ID, the deterministic merge
// order.
//
// Every EXPAND, of one component or several, follows these rules:
//
//   - The input is validated first: an unknown or hidden node, a
//     singleton component, a root listed twice or an empty list is
//     rejected with the session untouched.
//   - A component some EXPAND on the tree already solved takes its cut
//     from the tree's cut memo; a memoized cut that is not a valid EdgeCut
//     of its component is forgotten and the component solved.
//   - Degradation is per component: a solve cut short by ctx, killed by an
//     injected fault, or lost to a panic falls back to the static
//     all-children cut for that component only, flagged Degraded with the
//     reason, and its siblings keep their optimized cuts. Any other solve
//     failure (not repairable by the fallback) aborts the EXPAND before any
//     cut is applied, leaving the session untouched.
//   - Cuts apply in ascending root order, and full-grade solves join the
//     memo once they apply. Each component charges the usual
//     1 + |revealed| cost and appends its own EXPAND log entry, so one
//     BACKTRACK undoes one component, newest first.
func (s *Session) ExpandBatchContext(ctx context.Context, nodes []navtree.NodeID) ([]ComponentExpand, error) {
	comps := make([]compExpand, len(nodes))
	for i, n := range nodes {
		comps[i].Node = n
	}
	if err := s.expand(ctx, comps); err != nil {
		return nil, err
	}
	out := make([]ComponentExpand, len(comps))
	for i := range comps {
		out[i] = comps[i].ComponentExpand
	}
	return out, nil
}

// compExpand carries one component through the EXPAND pipeline.
type compExpand struct {
	ComponentExpand
	cut    []core.Edge
	key    core.MemoKey
	shared bool // the policy shares cuts, and key names the component in the memo
	hit    bool // cut came from the memo
}

// expand is the EXPAND pipeline: validate, consult the memo, solve the
// misses, repair failed solves, apply. It sorts comps by root and fills
// in each component's result.
func (s *Session) expand(ctx context.Context, comps []compExpand) error {
	var sp *obs.Span
	ctx, sp = obs.StartChild(ctx, "expand")
	defer sp.End()

	if len(comps) == 0 {
		return errors.New("navigate: EXPAND with no components")
	}
	slices.SortFunc(comps, func(a, b compExpand) int { return cmp.Compare(a.Node, b.Node) })
	for i := range comps {
		n := comps[i].Node
		switch {
		case n < 0 || n >= s.at.Nav().Len():
			return fmt.Errorf("navigate: EXPAND on unknown node %d", n)
		case !s.at.IsVisible(n):
			return fmt.Errorf("navigate: EXPAND on hidden node %d", n)
		case s.at.ComponentSize(n) < 2:
			return fmt.Errorf("navigate: EXPAND on singleton component %d", n)
		case i > 0 && comps[i-1].Node == n:
			return fmt.Errorf("navigate: EXPAND lists component %d twice", n)
		}
	}

	// Memo phase: components some EXPAND on the tree already solved skip
	// the policy (core's cut memo).
	var misses []navtree.NodeID
	for i := range comps {
		c := &comps[i]
		if c.key, c.shared = s.at.MemoKey(s.policy, c.Node); c.shared {
			cut, ok := s.at.MemoCut(c.key)
			if ok && s.at.CheckCut(c.Node, cut) == nil {
				memoHits.Inc()
				c.cut, c.hit = cut, true
				continue
			}
			if ok {
				s.at.Forget(c.key)
			}
			memoMisses.Inc()
		}
		misses = append(misses, c.Node)
	}

	// Solve phase: read-only fan-out over the misses, merged in ascending
	// root order, with failed solves repaired before anything mutates.
	// Solves that finished with a degraded grade (anytime policies absorb
	// expiry into the grade) are flagged but their cuts stand.
	if len(misses) > 0 {
		solved := core.SolveComponents(ctx, s.at, s.policy, misses)
		for i := range comps {
			c := &comps[i]
			if c.hit {
				continue
			}
			cc := solved[0]
			solved = solved[1:]
			c.cut, c.Grade = cc.Cut, cc.Grade
			if cc.Err == nil {
				if cc.Grade != core.GradeFull {
					c.Degraded, c.Reason = true, cc.Reason
				}
				continue
			}
			if !degradable(ctx, cc.Err) {
				return fmt.Errorf("navigate: EXPAND component %d: %w", c.Node, cc.Err)
			}
			c.Grade, c.Degraded, c.Reason = core.GradeStatic, true, reasonFor(ctx, cc.Err)
			// The fallback must not inherit the expired deadline or the armed
			// failpoint outcome that triggered it: StaticAll is a plain child
			// walk.
			//lint:ignore CTX01 degradation path must not inherit the expired deadline that triggered it
			cut, err := core.StaticAll{}.ChooseCut(context.Background(), s.at, c.Node)
			if err != nil {
				return fmt.Errorf("navigate: degraded EXPAND fallback for %d: %w", c.Node, err)
			}
			c.cut = cut
		}
	}

	// Apply phase: serial, in ascending root order. Cuts were chosen
	// against the pre-EXPAND tree; they stay valid because each one
	// touches only its own component.
	for i := range comps {
		c := &comps[i]
		check.EdgeCut(s.at, c.Node, c.cut)
		revealed, err := s.at.Expand(c.Node, c.cut)
		if err != nil {
			return fmt.Errorf("navigate: EXPAND apply on %d: %w", c.Node, err)
		}
		if c.shared && !c.hit && c.Grade == core.GradeFull {
			s.at.Memoize(c.key, c.cut)
		}
		s.expanded(c.Node, revealed)
		c.Revealed = revealed
	}
	if sp != nil {
		traceExpand(sp, s.policy, comps, len(comps)-len(misses))
	}
	return nil
}

// traceExpand sets the expand span's attributes: the worst grade, the
// total revealed, the count of degraded components and the first reason.
func traceExpand(sp *obs.Span, policy core.Policy, comps []compExpand, hits int) {
	roots := make([]navtree.NodeID, len(comps))
	grade, revealed, degraded, reason := core.GradeFull, 0, 0, ""
	for i, c := range comps {
		roots[i] = c.Node
		grade = max(grade, c.Grade)
		revealed += len(c.Revealed)
		if c.Degraded {
			if degraded++; reason == "" {
				reason = c.Reason
			}
		}
	}
	sp.SetAttr("policy", policy.Name())
	sp.SetAttr("roots", roots)
	sp.SetAttr("components", len(comps))
	sp.SetAttr("cache_hits", hits)
	sp.SetAttr("grade", grade.String())
	sp.SetAttr("revealed", revealed)
	sp.SetAttr("degraded", degraded)
	if reason != "" {
		sp.SetAttr("reason", reason)
	}
}

// degradable reports whether a failed solve falls back to the static cut:
// a cancellation or expired deadline, an armed failpoint firing
// mid-solve, or a solve panic SolveComponents recovered. Logical failures
// stay fatal: the fallback must not mask them.
func degradable(ctx context.Context, err error) bool {
	return ctx.Err() != nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, faults.ErrInjected) ||
		errors.Is(err, core.ErrSolvePanic)
}

// reasonFor prefers the ctx's own error for the degradation reason: a
// policy may surface a wrapped or foreign error after its deadline fired.
func reasonFor(ctx context.Context, err error) string {
	if cerr := ctx.Err(); cerr != nil {
		return cerr.Error()
	}
	return err.Error()
}
