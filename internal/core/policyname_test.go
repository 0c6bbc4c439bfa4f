package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestPolicyByName pins the CLI spellings and K handling: k <= 0 keeps
// the default budget, a heuristic K above the Opt-EdgeCut limit is
// rejected (its reduced trees could exceed what the DP takes), static
// ignores K, and no other spelling resolves. "opt" is refused with a
// message that names the Opt-EdgeCut limit its root EXPANDs would exceed.
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
		{"static", 36, "Static", 0},
		{"poly", 0, "", 0},
		{"opt", 0, "", 0},
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
		if h, ok := p.(*HeuristicReducedOpt); ok {
			k = h.K
		}
		if k != tc.wantK {
			t.Errorf("PolicyByName(%q, %d): K = %d, want %d", tc.name, tc.k, k, tc.wantK)
		}
	}
	if _, err := PolicyByName("opt", 0); err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxOptNodes)) {
		t.Errorf("PolicyByName(opt) err = %v, want one naming the limit %d", err, maxOptNodes)
	}
}
