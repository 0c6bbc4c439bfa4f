package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"bionav/internal/faults"
	"bionav/internal/rng"
)

// TestFaultDPCancelledContext: a pre-cancelled context aborts the DP at
// the entry checkpoint, before any fold work.
func TestFaultDPCancelledContext(t *testing.T) {
	src := rng.New(11)
	ct := randomCompTree(t, src, 10, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := optEdgeCut(ctx, ct, DefaultCostModel()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFaultDPStallUnderDeadline arms the SiteDP failpoint with a long
// stall and runs the DP under a short deadline: the stall must be cut off
// at the deadline and the ctx error surfaced, well before the stall's
// nominal duration.
func TestFaultDPStallUnderDeadline(t *testing.T) {
	t.Cleanup(faults.Reset)
	faults.Arm(faults.SiteDP, faults.Always(), faults.SleepAction(30*time.Second))
	src := rng.New(12)
	ct := randomCompTree(t, src, 10, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := optEdgeCut(ctx, ct, DefaultCostModel())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DP ignored its deadline (%v)", elapsed)
	}
}

// TestFaultDPAbortKeepsMemoConsistent cancels a DP mid-run via a
// failpoint that expires the context after N checkpoint evaluations, then
// re-runs the same optimizer to completion: the answer must match a fresh
// optimizer bit for bit, proving aborted runs leave no partial state in
// the memo.
func TestFaultDPAbortKeepsMemoConsistent(t *testing.T) {
	t.Cleanup(faults.Reset)
	model := DefaultCostModel()
	src := rng.New(13)
	for trial := 0; trial < 20; trial++ {
		ct := randomCompTree(t, src, 12, 16)

		o := newOptimizer(ct, model)
		ctx, cancel := context.WithCancel(context.Background())
		// Fire on the 2nd checkpoint (entry passes, an early fold aborts).
		faults.Arm(faults.SiteDP, faults.AfterN(1), func(context.Context) error {
			cancel()
			return context.Canceled
		})
		_, _, err := o.cutFor(ctx, 0, ct.descMask[0])
		faults.Disarm(faults.SiteDP)
		cancel()
		if err == nil {
			// The DP finished before the second checkpoint (tiny fold);
			// nothing was aborted, so nothing to verify for this trial.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}

		// The same optimizer — memo included — must now produce the exact
		// answer of an untouched one.
		gotCut, gotCost, err := o.cutFor(context.Background(), 0, ct.descMask[0])
		if err != nil {
			t.Fatalf("trial %d: retry after abort: %v", trial, err)
		}
		wantCut, wantCost, err := newOptimizer(ct, model).cutFor(context.Background(), 0, ct.descMask[0])
		if err != nil {
			t.Fatalf("trial %d: fresh optimizer: %v", trial, err)
		}
		if gotCost != wantCost {
			t.Fatalf("trial %d: post-abort cost %v != fresh %v", trial, gotCost, wantCost)
		}
		if len(gotCut) != len(wantCut) {
			t.Fatalf("trial %d: post-abort cut %v != fresh %v", trial, gotCut, wantCut)
		}
		for i := range gotCut {
			if gotCut[i] != wantCut[i] {
				t.Fatalf("trial %d: post-abort cut %v != fresh %v", trial, gotCut, wantCut)
			}
		}
	}
}

// TestFaultPolicyPropagatesCancellation: the ctx error surfaces through
// HeuristicReducedOpt and CachedHeuristic ChooseCut unchanged, which is
// what navigate keys its degradation decision on.
func TestFaultPolicyPropagatesCancellation(t *testing.T) {
	f := newPaperFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pol := NewHeuristicReducedOpt()
	if _, err := pol.ChooseCut(ctx, f.at, f.at.Nav().Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("HeuristicReducedOpt err = %v, want context.Canceled", err)
	}
	cachedPol := NewCachedHeuristic()
	if _, err := cachedPol.ChooseCut(ctx, f.at, f.at.Nav().Root()); !errors.Is(err, context.Canceled) {
		t.Fatalf("CachedHeuristic err = %v, want context.Canceled", err)
	}
	// The same policies answer normally once the pressure is off.
	if _, err := pol.ChooseCut(context.Background(), f.at, f.at.Nav().Root()); err != nil {
		t.Fatalf("HeuristicReducedOpt after cancel: %v", err)
	}
	if _, err := cachedPol.ChooseCut(context.Background(), f.at, f.at.Nav().Root()); err != nil {
		t.Fatalf("CachedHeuristic after cancel: %v", err)
	}
}
