package core

import "testing"

// TestPolicyByName pins the CLI spellings and K handling: k <= 0 keeps
// the default budget, a heuristic K above the Opt-EdgeCut limit is
// rejected (its reduced trees could exceed what the DP takes), and the
// other budgeted policy takes any K.
func TestPolicyByName(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     int
		want  string // the policy's Name; empty when resolution must fail
		wantK int    // the budget K of a budgeted policy
	}{
		{"heuristic", 0, "Heuristic-ReducedOpt", 10},
		{"", -3, "Heuristic-ReducedOpt", 10},
		{"heuristic", 7, "Heuristic-ReducedOpt", 7},
		{"heuristic", maxOptNodes, "Heuristic-ReducedOpt", maxOptNodes},
		{"heuristic", maxOptNodes + 1, "", 0},
		{"heuristic", 36, "", 0},
		{"poly", 0, "Poly-Anytime", 10},
		{"poly", 36, "Poly-Anytime", 36},
		{"opt", 36, "Opt-EdgeCut", 0},
		{"static", 36, "Static", 0},
		{"Heuristic", 0, "", 0},
		{"cached", 0, "", 0},
	} {
		p, err := PolicyByName(tc.name, tc.k)
		if tc.want == "" {
			if err == nil {
				t.Errorf("PolicyByName(%q, %d) = %s, want an error", tc.name, tc.k, p.Name())
			}
			continue
		}
		if err != nil {
			t.Errorf("PolicyByName(%q, %d): %v", tc.name, tc.k, err)
			continue
		}
		if p.Name() != tc.want {
			t.Errorf("PolicyByName(%q, %d) = %s, want %s", tc.name, tc.k, p.Name(), tc.want)
		}
		k := 0
		switch p := p.(type) {
		case *HeuristicReducedOpt:
			k = p.K
		case *PolyCutPolicy:
			k = p.K
		}
		if k != tc.wantK {
			t.Errorf("PolicyByName(%q, %d): K = %d, want %d", tc.name, tc.k, k, tc.wantK)
		}
	}
}
