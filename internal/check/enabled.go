//go:build bionav_checks

package check

import (
	"bionav/internal/core"
	"bionav/internal/navtree"
)

// Enabled reports whether the deep-assertion hooks are compiled in.
const Enabled = true

// EdgeCut panics if cut is not a valid EdgeCut of root's component.
func EdgeCut(at *core.ActiveTree, root navtree.NodeID, cut []core.Edge) {
	if err := at.CheckCut(root, cut); err != nil {
		panic("bionav_checks: " + err.Error())
	}
}

// ActiveTree panics if at violates the Definition 4 invariants.
func ActiveTree(at *core.ActiveTree) {
	if err := at.CheckInvariants(); err != nil {
		panic("bionav_checks: " + err.Error())
	}
}

// Model panics if m violates the cost-model invariants.
func Model(m core.CostModel) {
	if err := ValidateModel(m); err != nil {
		panic("bionav_checks: " + err.Error())
	}
}
