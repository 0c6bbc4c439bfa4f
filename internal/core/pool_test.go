package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"bionav/internal/navtree"
)

// expandableRoots opens up the active tree one level and returns every
// multi-node component — the fan-out a batch EXPAND would solve.
func expandableRoots(t *testing.T, at *ActiveTree) []navtree.NodeID {
	t.Helper()
	if _, err := at.ExpandAll(at.Nav().Root()); err != nil {
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

// TestSolveComponentsMatchesSerial is the differential check behind the
// parallel EXPAND pipeline: fanning the per-component solves across a
// pool must yield byte-identical cuts, in the same ascending-root order,
// as running them inline on one goroutine.
func TestSolveComponentsMatchesSerial(t *testing.T) {
	at := bigActiveTree(t, 7, 600)
	roots := expandableRoots(t, at)
	policy := &HeuristicReducedOpt{K: 10, Model: DefaultCostModel()}

	serial := SolveComponents(context.Background(), nil, at, policy, roots)

	for _, size := range []int{1, 2, 4, 8} {
		pool := NewPool(size)
		got := SolveComponents(context.Background(), pool, at, policy, roots)
		pool.Close()
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", serial) {
			t.Fatalf("pool size %d diverged from serial:\n got %v\nwant %v", size, got, serial)
		}
	}
	if !sort.SliceIsSorted(serial, func(i, j int) bool { return serial[i].Root < serial[j].Root }) {
		t.Fatalf("results not in ascending root order: %v", serial)
	}
	for _, cc := range serial {
		if cc.Err != nil {
			t.Fatalf("component %d failed: %v", cc.Root, cc.Err)
		}
		if len(cc.Cut) == 0 {
			t.Fatalf("component %d produced an empty cut", cc.Root)
		}
	}
}

// panicOnRoot panics while solving one chosen component and delegates the
// rest, standing in for a policy bug that would otherwise kill a worker.
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
// to its own component: the worker survives, the component reports
// ErrSolvePanic, and every sibling still gets its optimized cut.
func TestSolveComponentsPanicIsolation(t *testing.T) {
	at := bigActiveTree(t, 11, 500)
	roots := expandableRoots(t, at)
	policy := panicOnRoot{inner: NewHeuristicReducedOpt(), target: roots[1]}

	for name, pool := range map[string]*Pool{"inline": nil, "pool": NewPool(2)} {
		cuts := SolveComponents(context.Background(), pool, at, policy, roots)
		pool.Close()
		for _, cc := range cuts {
			if cc.Root == roots[1] {
				if !errors.Is(cc.Err, ErrSolvePanic) {
					t.Fatalf("%s: target err = %v, want ErrSolvePanic", name, cc.Err)
				}
				continue
			}
			if cc.Err != nil || len(cc.Cut) == 0 {
				t.Fatalf("%s: sibling %d damaged by panic: cut=%v err=%v", name, cc.Root, cc.Cut, cc.Err)
			}
		}
	}
}

// TestSolveComponentsCancelled checks that a dead context fails every
// component with the context error instead of hanging on submission.
func TestSolveComponentsCancelled(t *testing.T) {
	at := bigActiveTree(t, 13, 400)
	roots := expandableRoots(t, at)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pool := NewPool(2)
	defer pool.Close()
	cuts := SolveComponents(ctx, pool, at, NewHeuristicReducedOpt(), roots)
	if len(cuts) != len(roots) {
		t.Fatalf("got %d results for %d roots", len(cuts), len(roots))
	}
	for _, cc := range cuts {
		if !errors.Is(cc.Err, context.Canceled) {
			t.Fatalf("component %d err = %v, want context.Canceled", cc.Root, cc.Err)
		}
	}
}

// TestPoolLifecycle covers the nil-pool contract and double Close.
func TestPoolLifecycle(t *testing.T) {
	var nilPool *Pool
	if nilPool.Size() != 1 {
		t.Fatalf("nil pool Size = %d, want 1", nilPool.Size())
	}
	nilPool.Warm()  // must not panic
	nilPool.Close() // must not panic

	p := NewPool(3)
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	p.Warm()
	p.Close()
	p.Close() // idempotent
}
