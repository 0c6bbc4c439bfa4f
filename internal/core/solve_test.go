package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bionav/internal/navtree"
)

// expandableRoots opens up the active tree one level and returns every
// multi-node component — the fan-out a batch EXPAND would solve.
func expandableRoots(t *testing.T, at *ActiveTree) []navtree.NodeID {
	t.Helper()
	if _, err := expandStatic(at, at.Nav().Root()); err != nil {
		t.Fatal(err)
	}
	var roots []navtree.NodeID
	for _, r := range at.VisibleRoots() {
		if at.ComponentSize(r) > 1 {
			roots = append(roots, r)
		}
	}
	if len(roots) < 2 {
		t.Fatalf("need several expandable components, got %d", len(roots))
	}
	return roots
}

// withProcs runs f at GOMAXPROCS procs and restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestSolveComponentsMatchesSerial is the differential check behind the
// parallel EXPAND pipeline: fanning the per-component solves across
// goroutines must yield byte-identical cuts, in the same ascending-root
// order, as a plain loop of ChooseCut over the sorted roots on one
// goroutine.
func TestSolveComponentsMatchesSerial(t *testing.T) {
	at := bigActiveTree(t, 7, 600)
	roots := expandableRoots(t, at)
	policy := &HeuristicReducedOpt{K: 10, Model: DefaultCostModel()}

	sorted := append([]navtree.NodeID(nil), roots...)
	sort.Ints(sorted)
	serial := make([]ComponentCut, len(sorted))
	for i, r := range sorted {
		cut, err := policy.ChooseCut(context.Background(), at, r)
		if err != nil {
			t.Fatalf("component %d failed: %v", r, err)
		}
		if len(cut) == 0 {
			t.Fatalf("component %d produced an empty cut", r)
		}
		serial[i] = ComponentCut{Root: r, Cut: cut}
	}

	for _, procs := range []int{1, 2, 4, 8} {
		var got []ComponentCut
		withProcs(procs, func() { got = SolveComponents(context.Background(), at, policy, roots) })
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", serial) {
			t.Fatalf("GOMAXPROCS %d diverged from serial:\n got %v\nwant %v", procs, got, serial)
		}
	}
}

// barrierPolicy holds every ChooseCut until want calls are in flight at
// once, or until a 5 s timeout opens the barrier for good, and records
// the peak concurrency it saw.
type barrierPolicy struct {
	want int

	mu       sync.Mutex
	inFlight int
	peak     int
	opened   bool          // open is closed
	open     chan struct{} // closed by openLocked
}

func (p *barrierPolicy) Name() string { return "barrier" }

// CutKey is nil: the barrier is about scheduling, not about cuts.
func (p *barrierPolicy) CutKey() any { return nil }

// openLocked releases every waiting and future call; p.mu is held.
func (p *barrierPolicy) openLocked() {
	if !p.opened {
		p.opened = true
		close(p.open)
	}
}

func (p *barrierPolicy) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	p.mu.Lock()
	p.inFlight++
	p.peak = max(p.peak, p.inFlight)
	if p.inFlight == p.want {
		p.openLocked()
	}
	p.mu.Unlock()
	t := time.NewTimer(5 * time.Second)
	defer t.Stop()
	select {
	case <-p.open:
	case <-t.C:
	}
	p.mu.Lock()
	p.inFlight--
	// A fan-out that fell short ends after one timeout, not one per
	// component.
	p.openLocked()
	p.mu.Unlock()
	return StaticAll{}.ChooseCut(ctx, at, root)
}

// TestSolveComponentsFansOut proves the solves really run side by side:
// as many as min(components, GOMAXPROCS) are in flight at once, and never
// more.
func TestSolveComponentsFansOut(t *testing.T) {
	at := bigActiveTree(t, 7, 600)
	roots := expandableRoots(t, at)
	for _, procs := range []int{1, 2, 4} {
		want := min(len(roots), procs)
		policy := &barrierPolicy{want: want, open: make(chan struct{})}
		var cuts []ComponentCut
		withProcs(procs, func() { cuts = SolveComponents(context.Background(), at, policy, roots) })
		for _, cc := range cuts {
			if cc.Err != nil {
				t.Fatalf("GOMAXPROCS %d: component %d: %v", procs, cc.Root, cc.Err)
			}
		}
		if policy.peak != want {
			t.Fatalf("GOMAXPROCS %d, %d components: peak of %d concurrent solves, want %d",
				procs, len(roots), policy.peak, want)
		}
	}
}

// panicOnRoot panics while solving one chosen component and delegates the
// rest, standing in for a policy bug that would otherwise kill the
// solving goroutine.
type panicOnRoot struct {
	inner  Policy
	target navtree.NodeID
}

func (p panicOnRoot) Name() string { return "panic-on-root" }

// CutKey is nil: the cut depends on which root panics, not on the
// component alone.
func (p panicOnRoot) CutKey() any { return nil }

func (p panicOnRoot) ChooseCut(ctx context.Context, at *ActiveTree, root navtree.NodeID) ([]Edge, error) {
	if root == p.target {
		panic("synthetic solve bug")
	}
	return p.inner.ChooseCut(ctx, at, root)
}

// TestSolveComponentsPanicIsolation proves a panicking solve is contained
// to its own component: the component reports ErrSolvePanic, and every
// sibling still gets its optimized cut, on the calling goroutine and on
// the fanned-out ones alike.
func TestSolveComponentsPanicIsolation(t *testing.T) {
	at := bigActiveTree(t, 11, 500)
	roots := expandableRoots(t, at)
	policy := panicOnRoot{inner: NewHeuristicReducedOpt(), target: roots[1]}

	for _, procs := range []int{1, 2} {
		var cuts []ComponentCut
		withProcs(procs, func() { cuts = SolveComponents(context.Background(), at, policy, roots) })
		for _, cc := range cuts {
			if cc.Root == roots[1] {
				if !errors.Is(cc.Err, ErrSolvePanic) {
					t.Fatalf("GOMAXPROCS %d: target err = %v, want ErrSolvePanic", procs, cc.Err)
				}
				continue
			}
			if cc.Err != nil || len(cc.Cut) == 0 {
				t.Fatalf("GOMAXPROCS %d: sibling %d damaged by panic: cut=%v err=%v", procs, cc.Root, cc.Cut, cc.Err)
			}
		}
	}
}

// TestSolveComponentsCancelled checks that a dead context fails every
// component with the context error.
func TestSolveComponentsCancelled(t *testing.T) {
	at := bigActiveTree(t, 13, 400)
	roots := expandableRoots(t, at)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var cuts []ComponentCut
	withProcs(2, func() { cuts = SolveComponents(ctx, at, NewHeuristicReducedOpt(), roots) })
	if len(cuts) != len(roots) {
		t.Fatalf("got %d results for %d roots", len(cuts), len(roots))
	}
	for _, cc := range cuts {
		if !errors.Is(cc.Err, context.Canceled) {
			t.Fatalf("component %d err = %v, want context.Canceled", cc.Root, cc.Err)
		}
	}
}
