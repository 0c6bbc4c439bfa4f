// Command bionav-gen performs BioNav's off-line pre-processing (§VII): it
// synthesizes a dataset — concept hierarchy and annotated citation corpus
// with the denormalized associations table — and writes it to a BioNav
// database directory for the on-line tools to open, which build the
// keyword index from the citations' terms.
//
// Two dataset flavors are available:
//
//	bionav-gen -out ./db                       # demo dataset
//	bionav-gen -out ./db -workload             # the paper's Table I workload
//
// The -workload flavor embeds the ten Table I queries (prothymosin,
// vardenafil, …) with their published characteristics, so the web UI and
// CLI reproduce the paper's running examples.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"bionav"
	"bionav/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav-gen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bionav-gen", flag.ContinueOnError)
	var (
		out        = fs.String("out", "bionav-db", "output database directory")
		seed       = fs.Uint64("seed", 2009, "generation seed")
		useWL      = fs.Bool("workload", false, "generate the paper's Table I workload instead of a demo dataset")
		concepts   = fs.Int("concepts", 6000, "demo: hierarchy size")
		citations  = fs.Int("citations", 2000, "demo: corpus size")
		mean       = fs.Int("mean-concepts", 40, "demo: mean annotations per citation")
		hierNodes  = fs.Int("hierarchy", 48000, "workload: synthetic MeSH size")
		background = fs.Int("background", 3000, "workload: background citations")
		meshFile   = fs.String("mesh", "", "import: MeSH descriptor file (ASCII exchange format)")
		medFile    = fs.String("medline", "", "import: MEDLINE citation set (PubmedArticleSet XML)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if (*meshFile == "") != (*medFile == "") {
		return fmt.Errorf("-mesh and -medline must be passed together")
	}

	start := time.Now()
	var ds *bionav.Dataset
	var wl *workload.Workload
	if *meshFile != "" {
		if *useWL {
			return fmt.Errorf("-workload cannot combine with -mesh/-medline import")
		}
		mf, err := os.Open(*meshFile)
		if err != nil {
			return err
		}
		defer mf.Close()
		cf, err := os.Open(*medFile)
		if err != nil {
			return err
		}
		defer cf.Close()
		var stats bionav.ImportStats
		ds, stats, err = bionav.Import(mf, cf)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "imported %d of %d articles (%d unknown MeSH headings, %d skipped)\n",
			stats.Imported, stats.Articles, stats.UnknownDescriptors,
			stats.SkippedNoPMID+stats.SkippedDuplicate)
	} else if *useWL {
		cfg := workload.DefaultConfig()
		cfg.Seed = *seed
		cfg.HierarchyNodes = *hierNodes
		cfg.Background = *background
		w, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		ds, wl = w.Dataset, w
		for _, q := range w.Queries {
			fmt.Fprintf(stdout, "planted query %-22q → %4d citations, target %q\n",
				q.Spec.Keyword, len(q.Results), q.Spec.TargetLabel)
		}
	} else {
		ds = bionav.GenerateDemo(bionav.DemoConfig{
			Seed: *seed, Concepts: *concepts, Citations: *citations, MeanConcepts: *mean,
		})
	}
	fmt.Fprintf(stdout, "generated %d concepts, %d citations, %d index terms in %v\n",
		ds.Tree.Len(), ds.Corpus.Len(), ds.Index.Terms(), time.Since(start).Round(time.Millisecond))

	// Workload datasets carry a sidecar table with the realized queries so
	// bionav-experiments can reuse them without re-synthesizing.
	var saveErr error
	if wl != nil {
		saveErr = wl.Save(*out)
	} else {
		saveErr = ds.Save(*out)
	}
	if saveErr != nil {
		return saveErr
	}
	fmt.Fprintf(stdout, "saved BioNav database to %s\n", *out)
	return nil
}
