package navigate

import (
	"bytes"
	"sync"
	"testing"

	"bionav/internal/core"
	"bionav/internal/navtree"
)

// TestSharedAggregatesConcurrentSessions opens eight sessions at once on a
// freshly built tree, so they race on computing its per-tree aggregates,
// drives each down the same TOPDOWN path, and requires every export to
// equal that of a serial session on a separately built tree.
func TestSharedAggregatesConcurrentSessions(t *testing.T) {
	topdown := func(nav *navtree.Tree, target navtree.NodeID) ([]byte, error) {
		s := NewSession(nav, core.NewHeuristicReducedOpt())
		for !s.Active().IsVisible(target) {
			if _, err := s.Expand(s.Active().ComponentOf(target)); err != nil {
				return nil, err
			}
		}
		if _, err := s.ShowResults(target); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := s.Export(&buf)
		return buf.Bytes(), err
	}

	ref := buildNav(t, 311, 300, 35)
	target := deepTarget(t, ref)
	want, err := topdown(ref, target)
	if err != nil {
		t.Fatal(err)
	}

	nav := buildNav(t, 311, 300, 35)
	const sessions = 8
	got := make([][]byte, sessions)
	errs := make([]error, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = topdown(nav, target)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("session %d export differs from the serial session's:\n%s\nwant\n%s", i, got[i], want)
		}
	}
}
