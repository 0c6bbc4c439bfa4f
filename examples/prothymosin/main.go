// The prothymosin example replays the paper's §I running example on the
// synthesized Table I workload: the query "prothymosin" returns 313
// citations spanning several independent research areas; static navigation
// buries the interesting concepts under hundreds of siblings, while
// BioNav's cost-optimized EXPAND reaches the target concept ("Histones" in
// this reproduction) in a handful of steps.
//
// Run with:
//
//	go run ./examples/prothymosin
package main

import (
	"fmt"
	"log"
	"os"

	"bionav"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("synthesizing the Table I workload (small scale)…")
	cfg := workload.DefaultConfig()
	cfg.HierarchyNodes = 12000
	cfg.Background = 300
	w, err := workload.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	q, ok := w.QueryByKeyword("prothymosin")
	if !ok {
		log.Fatal("no prothymosin query in workload")
	}

	engine := bionav.NewEngine(w.Dataset)
	nav, err := engine.Navigate("prothymosin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%q matched %d citations (paper: 313)\n", "prothymosin", nav.Results())

	// Drive the navigation toward the Table I target concept exactly as
	// the §VIII-A oracle user does: always expand the component containing
	// the target until it surfaces.
	targetLabel := q.Spec.TargetLabel
	fmt.Printf("navigating toward the target concept %q…\n\n", targetLabel)
	for step := 1; ; step++ {
		node, ok := nav.NodeByLabel(targetLabel)
		if !ok {
			log.Fatalf("target %q not in navigation tree", targetLabel)
		}
		if nav.IsVisible(node) {
			break
		}
		// Expand the visible component whose I-set hides the target.
		expandable, _ := nav.ComponentOf(node)
		revealed, err := nav.Expand(expandable)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("EXPAND #%d on node %d revealed %d concepts\n", step, expandable, len(revealed))
	}

	fmt.Println("\ntarget revealed — the visible tree:")
	if err := nav.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	cost := nav.Cost()
	fmt.Printf("\nBioNav navigation cost: %d (%d EXPANDs + %d concepts examined)\n",
		cost.Navigation(), cost.Expands, cost.ConceptsRevealed)

	// Compare with the static baseline on the same query (Fig. 8's row).
	navTree, target, err := w.NavTree(q)
	if err != nil {
		log.Fatal(err)
	}
	static, err := navigate.Simulate(navTree, bionav.StaticPolicy(), []navtree.NodeID{target}, false, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static navigation cost:  %d (%d EXPANDs + %d concepts examined)\n",
		static.Cost.Navigation(), static.Cost.Expands, static.Cost.ConceptsRevealed)
	fmt.Printf("improvement: %.0f%% (paper reports 84%% for prothymosin)\n",
		100*(1-float64(cost.Navigation())/float64(static.Cost.Navigation())))
}
