// Package check implements BioNav's deep runtime assertions: expensive
// validations of the paper's structural invariants that are too costly
// for production but cheap enough to run on every operation in tests.
//
// The package is split in two layers. The validators are always compiled
// and return errors — property tests call them directly: ValidateModel
// here, and core's own ActiveTree.CheckCut and ActiveTree.CheckInvariants
// for the EdgeCut and active-tree invariants. The assertion hooks
// (EdgeCut, ActiveTree, Model) are gated behind the bionav_checks build
// tag: under `go test -tags bionav_checks` they panic on any violation; in
// a default build they are empty functions and the const Enabled is
// false, so call sites compile to nothing. See docs/STATIC_ANALYSIS.md for
// how the tag fits the verification story.
package check

import (
	"fmt"
	"math"

	"bionav/internal/core"
)

// ValidateModel verifies the cost-model constants of §III–IV: a positive
// finite EXPAND cost K and ordered, non-negative pE thresholds. A model
// violating these makes the Opt-EdgeCut objective meaningless (a zero or
// negative K rewards infinitely lazy expansion chains; inverted
// thresholds make pE non-monotone in |L(I(n))|).
func ValidateModel(m core.CostModel) error {
	if math.IsNaN(m.ExpandCost) || math.IsInf(m.ExpandCost, 0) || m.ExpandCost <= 0 {
		return fmt.Errorf("check: cost model ExpandCost K = %v; want positive finite", m.ExpandCost)
	}
	if m.Tlo < 0 {
		return fmt.Errorf("check: cost model Tlo = %d; want >= 0", m.Tlo)
	}
	if m.Thi < m.Tlo {
		return fmt.Errorf("check: cost model thresholds inverted: Thi = %d < Tlo = %d", m.Thi, m.Tlo)
	}
	return nil
}
