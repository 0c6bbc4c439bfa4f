package navigate

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bionav/internal/core"
	"bionav/internal/faults"
	"bionav/internal/navtree"
)

// openedSession expands the root so the tree has several multi-node
// components, then returns the session and their roots.
func openedSession(t *testing.T, nav *navtree.Tree, policy core.Policy) (*Session, []navtree.NodeID) {
	t.Helper()
	s := NewSession(nav, policy)
	if _, err := s.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	var roots []navtree.NodeID
	for _, r := range s.Active().VisibleRoots() {
		if s.Active().ComponentSize(r) > 1 {
			roots = append(roots, r)
		}
	}
	if len(roots) < 2 {
		t.Fatalf("need several expandable components, got %d", len(roots))
	}
	return s, roots
}

// withProcs runs f at GOMAXPROCS procs and restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestExpandBatchMatchesSequential checks the batch EXPAND's equivalence
// claim from three directions: a batch at GOMAXPROCS=1 (every solve on
// the calling goroutine) equals expanding the roots one at a time in
// ascending order, and a batch at GOMAXPROCS=4 (solves fanned out) equals
// it byte for byte (results, costs, and the visible tree). Each arm runs
// on its own build of the same tree, so each solves its components rather
// than reading another arm's cuts from a shared cut memo.
func TestExpandBatchMatchesSequential(t *testing.T) {
	nav := func() *navtree.Tree { return buildNav(t, 211, 300, 35) }

	seq, roots := openedSession(t, nav(), core.NewHeuristicReducedOpt())
	for _, r := range roots {
		if _, err := seq.Expand(r); err != nil {
			t.Fatal(err)
		}
	}

	var err error
	serial, roots2 := openedSession(t, nav(), core.NewHeuristicReducedOpt())
	var resSerial []ComponentExpand
	withProcs(1, func() { resSerial, err = serial.ExpandBatchContext(context.Background(), roots2) })
	if err != nil {
		t.Fatal(err)
	}

	par, roots3 := openedSession(t, nav(), core.NewHeuristicReducedOpt())
	var resPar []ComponentExpand
	withProcs(4, func() { resPar, err = par.ExpandBatchContext(context.Background(), roots3) })
	if err != nil {
		t.Fatal(err)
	}

	if got, want := fmt.Sprintf("%v", resPar), fmt.Sprintf("%v", resSerial); got != want {
		t.Fatalf("parallel batch diverged from serial:\n got %s\nwant %s", got, want)
	}
	if seq.Cost() != serial.Cost() || seq.Cost() != par.Cost() {
		t.Fatalf("costs diverged: seq=%+v serial=%+v par=%+v", seq.Cost(), serial.Cost(), par.Cost())
	}
	vSeq, vSerial, vPar := renderVisible(seq), renderVisible(serial), renderVisible(par)
	if vSeq != vSerial {
		t.Fatal("batch-serial visible tree diverged from one-at-a-time expands")
	}
	if vSerial != vPar {
		t.Fatal("batch-parallel visible tree diverged from batch-serial")
	}
	if len(serial.Log()) != len(roots2)+1 {
		t.Fatalf("batch logged %d actions, want %d", len(serial.Log())-1, len(roots2))
	}
	// One BACKTRACK undoes one component, exactly as with single expands.
	if err := par.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if err := seq.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if renderVisible(par) != renderVisible(seq) {
		t.Fatal("visible trees diverged after backtracking the last component")
	}
}

// renderVisible flattens the visible tree to a stable string: sorted node
// IDs with dereferenced values (the map holds pointers, so fmt.Sprint of
// the map itself would compare addresses).
func renderVisible(s *Session) string {
	vis := s.Visualize()
	ids := make([]navtree.NodeID, 0, len(vis))
	for id := range vis {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:%+v\n", id, *vis[id])
	}
	return b.String()
}

// failOnRoot fails one chosen component with an injected-fault error and
// delegates the rest — a worker dying mid-component.
type failOnRoot struct {
	inner  core.Policy
	target navtree.NodeID
}

func (p failOnRoot) Name() string { return "fail-on-root" }

// CutKey is nil: the injected failure belongs to one root, not to the
// component's members.
func (p failOnRoot) CutKey() any { return nil }

func (p failOnRoot) ChooseCut(ctx context.Context, at *core.ActiveTree, root navtree.NodeID) ([]core.Edge, error) {
	if root == p.target {
		return nil, fmt.Errorf("%w: worker died solving %d", faults.ErrInjected, root)
	}
	return p.inner.ChooseCut(ctx, at, root)
}

// TestFaultBatchExpandWorkerFailure proves a worker failing mid-component
// degrades that component alone: it falls back to the static cut while
// every sibling keeps its optimized cut, serial and parallel alike.
func TestFaultBatchExpandWorkerFailure(t *testing.T) {
	nav := buildNav(t, 223, 250, 30)
	for name, procs := range map[string]int{"serial": 1, "parallel": 4} {
		probe, roots := openedSession(t, nav, core.NewHeuristicReducedOpt())
		target := roots[len(roots)/2]

		s, _ := openedSession(t, nav, failOnRoot{inner: core.NewHeuristicReducedOpt(), target: target})
		var res []ComponentExpand
		var err error
		withProcs(procs, func() { res, err = s.ExpandBatchContext(context.Background(), roots) })
		if err != nil {
			t.Fatalf("%s: batch failed outright: %v", name, err)
		}

		// Reference: what the healthy policy and the static fallback reveal.
		if _, err := probe.ExpandBatchContext(context.Background(), roots); err != nil {
			t.Fatal(err)
		}
		allChildren := staticReveal(t, nav, target)

		for _, cr := range res {
			if cr.Node == target {
				if !cr.Degraded {
					t.Fatalf("%s: failed component not flagged degraded", name)
				}
				if fmt.Sprint(cr.Revealed) != fmt.Sprint(allChildren) {
					t.Fatalf("%s: degraded component revealed %v, want static %v", name, cr.Revealed, allChildren)
				}
				continue
			}
			if cr.Degraded {
				t.Fatalf("%s: sibling %d degraded by another component's failure", name, cr.Node)
			}
		}
		if err := s.Active().CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants broken after degraded batch: %v", name, err)
		}
	}

	// A single EXPAND of the failing component falls back the same way.
	_, roots := openedSession(t, nav, core.NewHeuristicReducedOpt())
	target := roots[len(roots)/2]
	s, _ := openedSession(t, nav, failOnRoot{inner: core.NewHeuristicReducedOpt(), target: target})
	res, err := s.ExpandContext(context.Background(), target)
	if err != nil {
		t.Fatalf("single EXPAND failed outright: %v", err)
	}
	if !res.Degraded || res.Reason == "" {
		t.Fatalf("single EXPAND of the failed component = %+v, want a static fallback with a reason", res)
	}
	if want := staticReveal(t, nav, target); fmt.Sprint(res.Revealed) != fmt.Sprint(want) {
		t.Fatalf("single EXPAND revealed %v, want static %v", res.Revealed, want)
	}
}

// staticReveal returns what the static all-children cut reveals of
// target's component, after the opening EXPAND of the root.
func staticReveal(t *testing.T, nav *navtree.Tree, target navtree.NodeID) []navtree.NodeID {
	t.Helper()
	static := NewSession(nav, core.NewHeuristicReducedOpt())
	if _, err := static.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	cut, err := core.StaticAll{}.ChooseCut(context.Background(), static.Active(), target)
	if err != nil {
		t.Fatal(err)
	}
	revealed, err := static.Active().Expand(target, cut)
	if err != nil {
		t.Fatal(err)
	}
	return revealed
}

// TestExpandBatchPanicDegradesComponent routes a policy panic through the
// batch path: SolveComponents contains it, the component degrades, the
// rest of the batch lands. A single EXPAND of that component, solved
// inline, degrades the same way.
func TestExpandBatchPanicDegradesComponent(t *testing.T) {
	nav := buildNav(t, 227, 200, 30)
	_, roots := openedSession(t, nav, core.NewHeuristicReducedOpt())
	// The root's own component stays expandable after the setup EXPAND, so
	// skip past it: the setup expand must not hit the panicking target.
	target := roots[len(roots)-1]

	s, _ := openedSession(t, nav, panickyPolicy{inner: core.NewHeuristicReducedOpt(), target: target})
	res, err := s.ExpandBatchContext(context.Background(), roots)
	if err != nil {
		t.Fatalf("panic was not degraded: %v", err)
	}
	for _, cr := range res {
		if (cr.Node == target) != cr.Degraded {
			t.Fatalf("degradation mismatch on %d: %+v", cr.Node, cr)
		}
	}

	single, _ := openedSession(t, nav, panickyPolicy{inner: core.NewHeuristicReducedOpt(), target: target})
	one, err := single.ExpandContext(context.Background(), target)
	if err != nil {
		t.Fatalf("single EXPAND: panic was not degraded: %v", err)
	}
	if !one.Degraded || !strings.Contains(one.Reason, "panicked") {
		t.Fatalf("single EXPAND of the panicking component = %+v, want a static fallback citing the panic", one)
	}
	if want := staticReveal(t, nav, target); fmt.Sprint(one.Revealed) != fmt.Sprint(want) {
		t.Fatalf("single EXPAND revealed %v, want static %v", one.Revealed, want)
	}
}

type panickyPolicy struct {
	inner  core.Policy
	target navtree.NodeID
}

func (p panickyPolicy) Name() string { return "panicky" }

// CutKey is nil: the panic belongs to one root, not to the component's
// members.
func (p panickyPolicy) CutKey() any { return nil }

func (p panickyPolicy) ChooseCut(ctx context.Context, at *core.ActiveTree, root navtree.NodeID) ([]core.Edge, error) {
	if root == p.target {
		panic("synthetic policy bug")
	}
	return p.inner.ChooseCut(ctx, at, root)
}

// TestExpandBatchValidation checks the batch rejects malformed input
// before touching the session.
func TestExpandBatchValidation(t *testing.T) {
	nav := buildNav(t, 229, 150, 30)
	s, roots := openedSession(t, nav, core.NewHeuristicReducedOpt())
	costBefore := s.Cost()

	hidden := -1
	for n := 1; n < nav.Len(); n++ {
		if !s.Active().IsVisible(n) {
			hidden = n
			break
		}
	}
	cases := map[string][]navtree.NodeID{
		"empty":     nil,
		"unknown":   {nav.Len() + 5},
		"hidden":    {hidden},
		"duplicate": {roots[0], roots[0]},
	}
	for name, nodes := range cases {
		if _, err := s.ExpandBatchContext(context.Background(), nodes); err == nil {
			t.Errorf("%s batch accepted", name)
		}
	}
	if s.Cost() != costBefore || len(s.Log()) != 1 {
		t.Fatal("rejected batch mutated the session")
	}
}
