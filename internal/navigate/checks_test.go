//go:build bionav_checks

package navigate

import (
	"testing"

	"bionav/internal/core"
)

// TestNewSessionChecksCostModel requires the deep-assertion build to vet
// the cost model of every policy that carries one when a session starts:
// K = 0 makes the EdgeCut objective meaningless, so NewSession panics.
func TestNewSessionChecksCostModel(t *testing.T) {
	nav := buildNav(t, 101, 150, 30)
	bad := core.CostModel{ExpandCost: 0, Thi: 50, Tlo: 10}
	for _, p := range []core.Policy{
		&core.HeuristicReducedOpt{K: 10, Model: bad},
		&core.OptEdgeCutPolicy{Model: bad},
		&core.CachedHeuristic{K: 10, Model: bad},
	} {
		t.Run(p.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSession accepted %s with ExpandCost 0", p.Name())
				}
			}()
			NewSession(nav, p)
		})
	}
}
