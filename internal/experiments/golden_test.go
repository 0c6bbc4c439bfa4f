package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
)

var update = flag.Bool("update", false, "rewrite the behaviour golden under testdata/golden")

// goldenPath is the behaviour golden at the repository root.
var goldenPath = filepath.Join("..", "..", "testdata", "golden", "topdown.golden")

// goldenPolicies are the Ablation C arms (keyed as aggregate keys them)
// plus Poly-Anytime. Policies may be stateful, so each run makes its own.
var goldenPolicies = []struct {
	key string
	mk  func() core.Policy
}{
	{"hro-default", func() core.Policy { return core.NewHeuristicReducedOpt() }},
	{"hro-cached", func() core.Policy { return core.NewCachedHeuristic() }},
	{"hro-entoff", func() core.Policy {
		m := core.DefaultCostModel()
		m.UseEntropy = false
		return &core.HeuristicReducedOpt{K: 10, Model: m}
	}},
	{"hro-discup", func() core.Policy {
		m := core.DefaultCostModel()
		m.DiscountUpper = true
		return &core.HeuristicReducedOpt{K: 10, Model: m}
	}},
	{"Static", func() core.Policy { return core.StaticAll{} }},
	{"Static-Top10", func() core.Policy { return core.StaticTopK{K: 10} }},
	{"Poly-Anytime", func() core.Policy { return core.NewPolyCutPolicy() }},
}

// TestBehaviourGolden pins what BioNav does on the experiments workload:
// for every Table I query under every policy, the TOPDOWN oracle's
// navigation cost, EXPAND count, revealed-concept count, and a SHA-256 of
// the whole EXPAND sequence (expanded node and revealed node IDs, in
// order). A change that alters any cut fails here. Regenerate with
//
//	go test ./internal/experiments -run TestBehaviourGolden -update
//
// only for an intended behaviour change, and say why in CHANGES.md.
func TestBehaviourGolden(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# query | policy | nav cost | expands | revealed | sha256(node:revealed per EXPAND)")
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		nav, target, err := r.nav(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range goldenPolicies {
			line, err := goldenRun(nav, p.mk(), target)
			if err != nil {
				t.Fatalf("%s on %q: %v", p.key, q.Spec.Keyword, err)
			}
			// The replay must be the harness's TOPDOWN run, not a lookalike.
			sim, err := navigate.SimulateToTarget(nav, p.mk(), target, false)
			if err != nil {
				t.Fatalf("%s on %q: %v", p.key, q.Spec.Keyword, err)
			}
			if sim.Cost != line.cost {
				t.Fatalf("%s on %q: replay cost %+v, SimulateToTarget %+v", p.key, q.Spec.Keyword, line.cost, sim.Cost)
			}
			fmt.Fprintf(&buf, "%s | %s | %d | %d | %d | %x\n", q.Spec.Keyword, p.key,
				line.cost.Navigation(), line.cost.Expands, line.cost.ConceptsRevealed, line.digest)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
		t.Fatal("navigation behaviour differs from " + goldenPath)
	}
}

type goldenLine struct {
	cost   navigate.Cost
	digest []byte
}

// goldenRun replays the TOPDOWN oracle (navigate.SimulateToTarget): expand
// the component hiding the target until the target is visible.
func goldenRun(nav *navtree.Tree, policy core.Policy, target navtree.NodeID) (goldenLine, error) {
	s := navigate.NewSession(nav, policy)
	h := sha256.New()
	for steps := 0; !s.Active().IsVisible(target); steps++ {
		if steps > 2*nav.Len() {
			return goldenLine{}, fmt.Errorf("target %d not reached", target)
		}
		root := s.Active().ComponentOf(target)
		revealed, err := s.Expand(root)
		if err != nil {
			return goldenLine{}, err
		}
		fmt.Fprintf(h, "%d:%v\n", root, revealed)
	}
	return goldenLine{cost: s.Cost(), digest: h.Sum(nil)}, nil
}
