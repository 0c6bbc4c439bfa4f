package navigate

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
	"bionav/internal/rng"
)

// expandableChild returns a child component of an expanded root that can
// itself be expanded (component size ≥ 2).
func expandableChild(t *testing.T, s *Session, revealed []navtree.NodeID) navtree.NodeID {
	t.Helper()
	for _, r := range revealed {
		if s.Active().ComponentSize(r) >= 2 {
			return r
		}
	}
	t.Fatal("no expandable child component")
	return -1
}

// countingPolicy counts the solves of the policy it wraps, batch solves on
// fanned-out goroutines included; its cut key is the wrapped policy's, so
// it shares cuts like the policy does.
type countingPolicy struct {
	core.Policy
	solves *atomic.Int64
}

func (p countingPolicy) ChooseCut(ctx context.Context, at *core.ActiveTree, root navtree.NodeID) ([]core.Edge, error) {
	p.solves.Add(1)
	return p.Policy.ChooseCut(ctx, at, root)
}

// TestSolverCacheReplayHit: BACKTRACK then EXPAND on the same component is
// answered from the tree's cut memo, with the same revealed set and no
// second solve, and the process-wide counters see the miss and the hit.
func TestSolverCacheReplayHit(t *testing.T) {
	nav := buildNav(t, 301, 150, 30)
	var solves atomic.Int64
	s := NewSession(nav, countingPolicy{core.NewHeuristicReducedOpt(), &solves})

	hits0, miss0 := memoHits.Value(), memoMisses.Value()
	first, err := s.ExpandContext(context.Background(), nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	if first.Grade != core.GradeFull || first.Degraded {
		t.Fatalf("unbounded expand came back %+v", first)
	}
	if memoMisses.Value() != miss0+1 || memoHits.Value() != hits0 {
		t.Fatal("first expand was not counted as a miss")
	}
	if err := s.Backtrack(); err != nil {
		t.Fatal(err)
	}
	second, err := s.ExpandContext(context.Background(), nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Revealed, second.Revealed) {
		t.Fatalf("re-expand revealed %v, first %v", second.Revealed, first.Revealed)
	}
	if second.Grade != core.GradeFull || second.Degraded {
		t.Fatalf("memo hit came back %+v", second)
	}
	if solves.Load() != 1 || memoHits.Value() != hits0+1 {
		t.Fatalf("re-expand: %d solves, %d hits; want 1 solve and a hit", solves.Load(), memoHits.Value()-hits0)
	}
}

// TestCutMemoSharedAcrossSessions: a second session on the same tree gets
// the first session's cuts without solving, while sessions over a
// separately built tree, and sessions whose policy has no cut key
// (CachedHeuristic keeps its own per-session plans), solve for themselves.
func TestCutMemoSharedAcrossSessions(t *testing.T) {
	nav := buildNav(t, 306, 180, 30)
	walk := func(nav *navtree.Tree, p core.Policy) []navtree.NodeID {
		t.Helper()
		s := NewSession(nav, p)
		res, err := s.Expand(nav.Root())
		if err != nil {
			t.Fatal(err)
		}
		child := expandableChild(t, s, res)
		more, err := s.Expand(child)
		if err != nil {
			t.Fatal(err)
		}
		return append(res, more...)
	}
	var solves atomic.Int64
	first := walk(nav, countingPolicy{core.NewHeuristicReducedOpt(), &solves})
	if solves.Load() != 2 {
		t.Fatalf("first session solved %d times, want 2", solves.Load())
	}
	if got := walk(nav, countingPolicy{core.NewHeuristicReducedOpt(), &solves}); !reflect.DeepEqual(got, first) || solves.Load() != 2 {
		t.Fatalf("second session revealed %v after %d solves; want %v with no new solve", got, solves.Load(), first)
	}
	if got := walk(buildNav(t, 306, 180, 30), countingPolicy{core.NewHeuristicReducedOpt(), &solves}); !reflect.DeepEqual(got, first) || solves.Load() != 4 {
		t.Fatalf("session on a rebuilt tree revealed %v after %d solves; want %v with two new solves", got, solves.Load(), first)
	}
	var cached atomic.Int64
	for i := 0; i < 2; i++ {
		walk(nav, countingPolicy{core.NewCachedHeuristic(), &cached})
	}
	if cached.Load() != 4 {
		t.Fatalf("cached-heuristic sessions solved %d times, want 4: they must not share cuts", cached.Load())
	}
}

// TestCutMemoKeyPinsMembers: the memo key is the component's exact member
// set, not its root. Re-expanding a root's upper remainder is a different
// component and misses; once BACKTRACK restores the component, the next
// EXPAND hits again and reveals what the first one did.
func TestCutMemoKeyPinsMembers(t *testing.T) {
	nav := buildNav(t, 302, 160, 30)
	var solves atomic.Int64
	s := NewSession(nav, countingPolicy{core.NewHeuristicReducedOpt(), &solves})
	root := nav.Root()
	first, err := s.Expand(root)
	if err != nil {
		t.Fatal(err)
	}
	a := expandableChild(t, s, first)
	aFirst, err := s.Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Active().ComponentSize(a) < 2 {
		t.Skip("fixture left no upper remainder under the expanded child")
	}
	// a's upper remainder keeps a's root with fewer members: a miss.
	if _, err := s.Expand(a); err != nil {
		t.Fatal(err)
	}
	if solves.Load() != 3 {
		t.Fatalf("%d solves after expanding a's upper remainder, want 3", solves.Load())
	}
	// Undo that, and the one before it: a's component is whole again.
	for i := 0; i < 2; i++ {
		if err := s.Backtrack(); err != nil {
			t.Fatal(err)
		}
	}
	again, err := s.Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	if solves.Load() != 3 || !reflect.DeepEqual(again, aFirst) {
		t.Fatalf("re-expanding the whole component: %d solves, revealed %v; want a hit revealing %v", solves.Load(), again, aFirst)
	}
	// IGNORE changes no member set: the root's whole component, restored
	// by BACKTRACK, still hits after an IGNORE.
	for i := 0; i < 2; i++ {
		if err := s.Backtrack(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ignore(root); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Expand(root); err != nil || solves.Load() != 3 || !reflect.DeepEqual(got, first) {
		t.Fatalf("EXPAND after IGNORE: %v, %d solves, revealed %v; want a hit revealing %v", err, solves.Load(), got, first)
	}
}

// TestSolverCacheBatchReplay: a batch EXPAND over components the tree's
// memo already holds solves only the misses, and BACKTRACK undoes the
// batch one component at a time.
func TestSolverCacheBatchReplay(t *testing.T) {
	nav := buildNav(t, 305, 200, 35)
	var solves atomic.Int64
	s := NewSession(nav, countingPolicy{core.NewHeuristicReducedOpt(), &solves})

	res, err := s.ExpandContext(context.Background(), nav.Root())
	if err != nil {
		t.Fatal(err)
	}
	var roots []navtree.NodeID
	for _, r := range res.Revealed {
		if s.Active().ComponentSize(r) >= 2 {
			roots = append(roots, r)
		}
	}
	if len(roots) < 2 {
		t.Skip("fixture revealed fewer than two expandable components")
	}
	// Solve one of them serially and undo it; then batch over all: that
	// one must be a hit, the rest misses.
	if _, err := s.ExpandContext(context.Background(), roots[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Backtrack(); err != nil {
		t.Fatal(err)
	}
	hits0, miss0, solves0 := memoHits.Value(), memoMisses.Value(), solves.Load()
	out, err := s.ExpandBatchContext(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	if hits := memoHits.Value() - hits0; hits != 1 {
		t.Fatalf("batch over %d roots: %d hits, want exactly one", len(roots), hits)
	}
	if misses := memoMisses.Value() - miss0; misses != uint64(len(roots)-1) {
		t.Fatalf("batch over %d roots: %d misses, want %d", len(roots), misses, len(roots)-1)
	}
	if int(solves.Load()-solves0) != len(roots)-1 {
		t.Fatalf("batch over %d roots solved %d, want %d", len(roots), solves.Load()-solves0, len(roots)-1)
	}
	for _, cr := range out {
		if cr.Grade != core.GradeFull || cr.Degraded {
			t.Fatalf("batch component %d degraded: %+v", cr.Node, cr.ExpandResult)
		}
	}
	for i := 0; i < len(roots)+1; i++ {
		if err := s.Backtrack(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Active().VisibleRoots(); len(got) != 1 || got[0] != nav.Root() {
		t.Fatalf("visible roots after full unwind = %v", got)
	}
}

// plantBadCut memoizes, under n's key for p, a cut listing one of n's
// child edges twice, which no EXPAND accepts, and returns the key.
func plantBadCut(t *testing.T, at *core.ActiveTree, p core.Policy, n navtree.NodeID) core.MemoKey {
	t.Helper()
	k, ok := at.MemoKey(p, n)
	if !ok {
		t.Fatalf("component %d has no memo key", n)
	}
	e := core.Edge{Parent: n, Child: at.Nav().Children(n)[0]}
	at.Memoize(k, []core.Edge{e, e})
	return k
}

// TestCutMemoBadCutFallsBack: a memoized cut that is not a valid EdgeCut
// of its component is dropped and the component solved, on the single and
// the batch EXPAND path, and the solved cut takes its place in the memo.
func TestCutMemoBadCutFallsBack(t *testing.T) {
	var solves atomic.Int64
	policy := countingPolicy{core.NewHeuristicReducedOpt(), &solves}

	t.Run("expand", func(t *testing.T) {
		nav := buildNav(t, 307, 180, 30)
		s := NewSession(nav, policy)
		want, err := freshCut(s, nav.Root())
		if err != nil {
			t.Fatal(err)
		}
		plantBadCut(t, s.Active(), policy, nav.Root())
		solves0, miss0 := solves.Load(), memoMisses.Value()
		got, err := s.Expand(nav.Root())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || solves.Load() != solves0+1 || memoMisses.Value() != miss0+1 {
			t.Fatalf("EXPAND over a bad memo cut revealed %v after %d solves and %d misses; want %v from one solve and one miss",
				got, solves.Load()-solves0, memoMisses.Value()-miss0, want)
		}
		if again, err := NewSession(nav, policy).Expand(nav.Root()); err != nil || !reflect.DeepEqual(again, want) || solves.Load() != solves0+1 {
			t.Fatalf("second session: %v, revealed %v after %d solves; want a hit revealing %v", err, again, solves.Load()-solves0, want)
		}
	})

	t.Run("batch", func(t *testing.T) {
		nav := buildNav(t, 307, 180, 30)
		s := NewSession(nav, policy)
		res, err := s.Expand(nav.Root())
		if err != nil {
			t.Fatal(err)
		}
		var roots []navtree.NodeID
		var want [][]navtree.NodeID
		for _, r := range res {
			if s.Active().ComponentSize(r) >= 2 {
				cut, err := freshCut(s, r)
				if err != nil {
					t.Fatal(err)
				}
				roots, want = append(roots, r), append(want, cut)
			}
		}
		if len(roots) == 0 {
			t.Skip("fixture revealed no expandable component")
		}
		k := plantBadCut(t, s.Active(), policy, roots[0])
		solves0 := solves.Load()
		out, err := s.ExpandBatchContext(context.Background(), roots)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range out {
			if cr.Degraded || !reflect.DeepEqual(cr.Revealed, want[i]) {
				t.Fatalf("component %d revealed %v (%+v), want %v", cr.Node, cr.Revealed, cr.ExpandResult, want[i])
			}
		}
		if got := solves.Load() - solves0; got != int64(len(roots)) {
			t.Fatalf("batch over %d roots, one with a bad memo cut, solved %d", len(roots), got)
		}
		cut, ok := s.Active().MemoCut(k)
		var kids []navtree.NodeID
		for _, e := range cut {
			kids = append(kids, e.Child)
		}
		sort.Ints(kids)
		if !ok || !reflect.DeepEqual(kids, want[0]) {
			t.Fatalf("the memo holds %v, %v for component %d; want the solved cut %v", cut, ok, roots[0], want[0])
		}
	})
}

// smallNav generates a navigation tree of 16 nodes, within Opt-EdgeCut's
// exact-DP limit of 24.
func smallNav(t *testing.T) *navtree.Tree {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 1, Nodes: 50, TopLevel: 3, MaxDepth: 5})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 8, Citations: 8, MeanConcepts: 2, FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	if nav.Len() != 16 {
		t.Fatalf("small tree has %d nodes, want 16", nav.Len())
	}
	return nav
}

// freshCut is what the session's policy picks for root's component when
// it solves, as the sorted children of the cut edges.
func freshCut(s *Session, root navtree.NodeID) ([]navtree.NodeID, error) {
	cut, err := s.Policy().ChooseCut(context.Background(), s.Active(), root)
	if err != nil {
		return nil, err
	}
	out := make([]navtree.NodeID, len(cut))
	for i, e := range cut {
		out[i] = e.Child
	}
	sort.Ints(out)
	return out, nil
}

// memoStep takes one seeded random action on s: EXPAND of a random
// expandable component, expandall over all of them, BACKTRACK or IGNORE.
// Each component it expands is first solved by the session's policy
// directly, and the EXPAND must apply that cut, whether it came from the
// memo or from a solve.
func memoStep(s *Session, src *rng.Source) error {
	at := s.Active()
	roots := at.VisibleRoots()
	var cands []navtree.NodeID
	for _, r := range roots {
		if at.ComponentSize(r) > 1 {
			cands = append(cands, r)
		}
	}
	switch k := src.Intn(10); {
	case k < 5 && len(cands) > 0:
		n := cands[src.Intn(len(cands))]
		want, err := freshCut(s, n)
		if err != nil {
			return err
		}
		res, err := s.ExpandContext(context.Background(), n)
		if err != nil {
			return err
		}
		if res.Degraded || !reflect.DeepEqual(res.Revealed, want) {
			return fmt.Errorf("%s: EXPAND(%d) revealed %v (%+v), a fresh solve cuts %v",
				s.Policy().Name(), n, res.Revealed, res, want)
		}
	case k < 6 && len(cands) > 0:
		want := make([][]navtree.NodeID, len(cands))
		for i, n := range cands {
			var err error
			if want[i], err = freshCut(s, n); err != nil {
				return err
			}
		}
		out, err := s.ExpandBatchContext(context.Background(), cands)
		if err != nil {
			return err
		}
		for i, cr := range out {
			if cr.Node != cands[i] || cr.Degraded || !reflect.DeepEqual(cr.Revealed, want[i]) {
				return fmt.Errorf("%s: expandall component %d revealed %v (%+v), a fresh solve cuts %v",
					s.Policy().Name(), cands[i], cr.Revealed, cr.ExpandResult, want[i])
			}
		}
	case k < 8:
		if at.CanBacktrack() {
			return s.Backtrack()
		}
	default:
		return s.Ignore(roots[src.Intn(len(roots))])
	}
	return nil
}

// TestCutMemoMatchesFreshSolve is the memo's differential test. On
// generated trees, three sessions per policy share one tree and take
// random turns at EXPAND, expandall, BACKTRACK and IGNORE, under every
// policy that shares cuts, with Heuristic-ReducedOpt at K=4 and K=10
// side by side; every cut an EXPAND applies must be the one a fresh solve
// of that component picks.
func TestCutMemoMatchesFreshSolve(t *testing.T) {
	shared := []core.Policy{
		&core.HeuristicReducedOpt{K: 4, Model: core.DefaultCostModel()},
		core.NewHeuristicReducedOpt(),
		core.NewPolyCutPolicy(),
		core.StaticAll{},
		core.StaticTopK{K: 3},
	}
	hits0 := memoHits.Value()
	cases := []struct {
		name     string
		nav      *navtree.Tree
		policies []core.Policy
	}{
		{"small", smallNav(t), append(shared, &core.OptEdgeCutPolicy{Model: core.DefaultCostModel()})},
		{"generated-331", buildNav(t, 331, 80, 20), shared},
		{"generated-332", buildNav(t, 332, 100, 25), shared},
	}
	for ci, tc := range cases {
		var sessions []*Session
		for _, p := range tc.policies {
			for i := 0; i < 3; i++ {
				sessions = append(sessions, NewSession(tc.nav, p))
			}
		}
		src := rng.New(uint64(500 + ci))
		for step := 0; step < 60*len(sessions); step++ {
			if err := memoStep(sessions[src.Intn(len(sessions))], src); err != nil {
				t.Fatalf("%s step %d: %v", tc.name, step, err)
			}
		}
	}
	if memoHits.Value() == hits0 {
		t.Fatal("no EXPAND was answered from the memo")
	}
}

// TestCutMemoConcurrentSessions races sessions on one tree's cut memo: six
// goroutines run seeded random navigations at once, fanned-out expandall
// solves included, each checking every applied cut against a fresh solve,
// and each export must equal that of the same navigation run alone on a
// separately built tree.
func TestCutMemoConcurrentSessions(t *testing.T) {
	const sessions, steps = 6, 40
	run := func(nav *navtree.Tree, seed uint64) ([]byte, error) {
		s := NewSession(nav, core.NewHeuristicReducedOpt())
		src := rng.New(seed)
		for i := 0; i < steps; i++ {
			if err := memoStep(s, src); err != nil {
				return nil, fmt.Errorf("step %d: %w", i, err)
			}
		}
		var buf bytes.Buffer
		err := s.Export(&buf)
		return buf.Bytes(), err
	}

	want := make([][]byte, sessions)
	for i := range want {
		var err error
		if want[i], err = run(buildNav(t, 313, 100, 25), uint64(700+i)); err != nil {
			t.Fatal(err)
		}
	}
	nav := buildNav(t, 313, 100, 25)
	got := make([][]byte, sessions)
	errs := make([]error, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = run(nav, uint64(700+i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("session %d export differs from the same navigation run alone:\n%s\nwant\n%s", i, got[i], want[i])
		}
	}
}
