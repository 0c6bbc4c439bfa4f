// The drugdiscovery example models the paper's "vardenafil" scenario: a
// pharmacologist surveys the literature on a drug whose results concentrate
// in a couple of research areas, and compares all three navigation
// strategies — BioNav's Heuristic-ReducedOpt, GoPubMed-style top-10
// children, and plain static navigation — on the same query, reporting the
// cost of reaching the Table I target concept under each.
//
// Run with:
//
//	go run ./examples/drugdiscovery
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

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

	q, ok := w.QueryByKeyword("vardenafil")
	if !ok {
		log.Fatal("no vardenafil query in workload")
	}
	nav, target, err := w.NavTree(q)
	if err != nil {
		log.Fatal(err)
	}
	stats := nav.ComputeStats()
	fmt.Printf("\n%q: %d citations over %d navigation-tree concepts (%d with duplicates)\n",
		q.Spec.Keyword, nav.DistinctTotal(), stats.Size, stats.TotalAttached)
	fmt.Printf("target concept: %q (L=%d, MEDLINE count=%d)\n\n",
		q.Spec.TargetLabel, nav.NumResults(target), q.Spec.TargetGlobal)

	policies := []bionav.Policy{
		bionav.HeuristicPolicy(10),
		bionav.TopKPolicy(10),
		bionav.StaticPolicy(),
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tEXPANDs\tconcepts examined\tnavigation cost\tavg time/EXPAND")
	for _, pol := range policies {
		res, err := navigate.Simulate(nav, pol, []navtree.NodeID{target}, false, time.Now)
		if err != nil {
			log.Fatalf("%s: %v", pol.Name(), err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%v\n",
			pol.Name(), res.Cost.Expands, res.Cost.ConceptsRevealed,
			res.Cost.Navigation(), res.AvgElapsed().Round(10_000))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// Show what the researcher actually sees after two BioNav expansions.
	engine := bionav.NewEngine(w.Dataset)
	session, err := engine.Navigate(q.Spec.Keyword)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := session.Expand(session.Root()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nBioNav view after two EXPANDs of the root:")
	if err := session.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
