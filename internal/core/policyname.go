package core

import "fmt"

// PolicyByName resolves the CLI spelling of an expansion policy — the
// -policy flag on bionav-server and bionav-experiments — to a fresh
// policy value. k overrides the cut/reduction budget K on the budgeted
// policies; k <= 0 keeps each policy's default (10, the paper's choice).
// A heuristic k above the Opt-EdgeCut limit is an error: the reduced
// trees it builds could exceed what the DP takes, failing EXPANDs.
//
//	heuristic  Heuristic-ReducedOpt (§VI-B), the paper's BioNav policy
//	poly       Poly-Anytime, the polynomial anytime PolyCut DP
//	opt        Opt-EdgeCut run exactly (exponential; small components only)
//	static     the static all-children baseline
func PolicyByName(name string, k int) (Policy, error) {
	switch name {
	case "heuristic", "":
		if k > maxOptNodes {
			return nil, fmt.Errorf("core: heuristic K %d exceeds the Opt-EdgeCut limit %d", k, maxOptNodes)
		}
		p := NewHeuristicReducedOpt()
		if k > 0 {
			p.K = k
		}
		return p, nil
	case "poly":
		p := NewPolyCutPolicy()
		if k > 0 {
			p.K = k
		}
		return p, nil
	case "opt":
		return &OptEdgeCutPolicy{Model: DefaultCostModel()}, nil
	case "static":
		return StaticAll{}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want heuristic, poly, opt or static)", name)
	}
}
