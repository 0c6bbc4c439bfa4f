package core

import "fmt"

// PolicyByName resolves the CLI spelling of an expansion policy — the
// -policy flag on bionav-server, bionav-experiments and bionav-loadgen —
// to a fresh policy value. k overrides Heuristic-ReducedOpt's reduced-tree
// budget K; k <= 0 keeps the default (10, the paper's choice). A K above
// the Opt-EdgeCut limit is an error: the reduced trees it builds could
// exceed what the DP takes, failing EXPANDs.
//
//	heuristic  Heuristic-ReducedOpt (§VI-B), the paper's BioNav policy
//	static     the static all-children baseline
//
// "opt" is refused with the reason: exact Opt-EdgeCut refuses every
// component above the Opt-EdgeCut limit, so it would fail the first root
// EXPAND of any real query.
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
	case "static":
		return StaticAll{}, nil
	case "opt":
		return nil, fmt.Errorf("core: policy \"opt\" refused: exact Opt-EdgeCut takes components of at most %d nodes, and a query's root component is larger (want heuristic or static)", maxOptNodes)
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want heuristic or static)", name)
	}
}
