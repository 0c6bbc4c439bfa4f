package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/golden")

// The goldens live under testdata/golden at the repository root.
var (
	topdownGolden = filepath.Join("..", "..", "testdata", "golden", "topdown.golden")
	viewsGolden   = filepath.Join("..", "..", "testdata", "golden", "views.golden")
	dpCostGolden  = filepath.Join("..", "..", "testdata", "golden", "dpcost.golden")
)

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
	checkGolden(t, topdownGolden, buf.Bytes())
}

// TestDPCostGolden pins the Opt-EdgeCut DP's numbers, Fig. 11's
// per-EXPAND rows without the timings: for every Table I query under
// hro-default and hro-discup, one row per TOPDOWN oracle EXPAND with the
// expanded root, the reduced-tree size |T_R|, the number of concepts the
// EXPAND revealed, and the DP's expected cost of the component just
// before it, printed exactly. A change to the DP's arithmetic fails here
// even when it leaves every cut alone. Regenerate with
//
//	go test ./internal/experiments -run TestDPCostGolden -update
//
// only for an intended behaviour change, and say why in CHANGES.md.
func TestDPCostGolden(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# query | policy | step | root | |T_R| | revealed | expected cost")
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		nav, target, err := r.nav(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range goldenPolicies {
			if p.key != "hro-default" && p.key != "hro-discup" {
				continue
			}
			pol := p.mk().(*core.HeuristicReducedOpt)
			s := navigate.NewSession(nav, pol)
			for step := 1; !s.Active().IsVisible(target); step++ {
				if step > 2*nav.Len() {
					t.Fatalf("%s on %q: target %d not reached", p.key, q.Spec.Keyword, target)
				}
				root := s.Active().ComponentOf(target)
				size, err := pol.LastReducedSize(s.Active(), root)
				if err != nil {
					t.Fatal(err)
				}
				cost, err := pol.ExpectedCost(s.Active(), root)
				if err != nil {
					t.Fatal(err)
				}
				revealed, err := s.Expand(root)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s | %s | %d | %d | %d | %d | %s\n", q.Spec.Keyword, p.key,
					step, root, size, len(revealed), strconv.FormatFloat(cost, 'g', -1, 64))
			}
		}
	}
	checkGolden(t, dpCostGolden, buf.Bytes())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update, reporting every differing line.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
		t.Fatal("output differs from " + path)
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

// viewSteps is the number of actions the view golden's script takes per
// query: with the initial view, twelve rendered views per query.
const viewSteps = 11

// TestViewGolden pins what the user sees on the experiments workload: for
// every Table I query under hro-default, a SHA-256 of the rendered view
// after the query and after each action of a fixed script, which EXPANDs
// the expandable visible component with the most citations (ties to the
// lower node ID) and BACKTRACKs every fourth step. A view hashes each
// visible node, root first and then down the ranked child lists, with its
// ID, label, count, expandable flag, the bits of its EXPLORE probability
// and its ranked children. Regenerate with
//
//	go test ./internal/experiments -run TestViewGolden -update
//
// only for an intended behaviour change, and say why in CHANGES.md.
func TestViewGolden(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# query | step | action | sha256(rendered view)")
	for i := range r.W.Queries {
		q := &r.W.Queries[i]
		nav, _, err := r.nav(q)
		if err != nil {
			t.Fatal(err)
		}
		s := navigate.NewSession(nav, core.NewHeuristicReducedOpt())
		fmt.Fprintf(&buf, "%s | 0 | query | %x\n", q.Spec.Keyword, viewDigest(s.Visualize()))
		for step := 1; step <= viewSteps; step++ {
			var action string
			if step%4 == 0 {
				action = "BACKTRACK"
				if err := s.Backtrack(); err != nil {
					t.Fatalf("%q step %d: %v", q.Spec.Keyword, step, err)
				}
			} else {
				root, ok := largestExpandable(s.Visualize())
				if !ok {
					break
				}
				if _, err := s.Expand(root); err != nil {
					t.Fatalf("%q step %d: EXPAND %d: %v", q.Spec.Keyword, step, root, err)
				}
				action = fmt.Sprintf("EXPAND %d", root)
			}
			fmt.Fprintf(&buf, "%s | %d | %s | %x\n", q.Spec.Keyword, step, action, viewDigest(s.Visualize()))
		}
	}
	checkGolden(t, viewsGolden, buf.Bytes())
}

// largestExpandable returns the expandable visible component with the
// most citations, the lower node ID on ties.
func largestExpandable(vis map[navtree.NodeID]*core.VisibleNode) (navtree.NodeID, bool) {
	best, found := navtree.NodeID(0), false
	for id, v := range vis {
		if !v.Expandable {
			continue
		}
		if b := vis[best]; !found || v.Count > b.Count || (v.Count == b.Count && id < best) {
			best, found = id, true
		}
	}
	return best, found
}

// viewDigest hashes a rendered view, root first, then depth-first down
// the ranked child lists.
func viewDigest(vis map[navtree.NodeID]*core.VisibleNode) []byte {
	h := sha256.New()
	var walk func(id navtree.NodeID)
	walk = func(id navtree.NodeID) {
		v := vis[id]
		fmt.Fprintf(h, "%d|%s|%d|%t|%016x|%v\n", v.Node, v.Label, v.Count, v.Expandable,
			math.Float64bits(v.Explore), v.Children)
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(0)
	return h.Sum(nil)
}
