// Command bionav-experiments regenerates every table and figure of the
// paper's evaluation (§VIII) on the synthesized Table I workload:
//
//	bionav-experiments                       # everything, full scale
//	bionav-experiments -exp fig8             # one experiment
//	bionav-experiments -scale small          # quick run (smaller hierarchy)
//	bionav-experiments -out results.txt
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"bionav/internal/core"
	"bionav/internal/experiments"
	"bionav/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav-experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bionav-experiments", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment to run: all | "+strings.Join(experiments.ExperimentIDs(), " | "))
		scale  = fs.String("scale", "full", "workload scale: full (48k-concept hierarchy) | small")
		out    = fs.String("out", "", "write results to this file instead of stdout")
		seed   = fs.Uint64("seed", 2009, "workload seed")
		dbDir  = fs.String("db", "", "reuse a workload database written by `bionav-gen -workload` instead of synthesizing")
		policy = fs.String("policy", "heuristic", "BioNav-arm expansion policy: heuristic or static")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := core.PolicyByName(*policy, 0)
	if err != nil {
		return err
	}

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	if *scale == "small" {
		cfg.HierarchyNodes = 8000
		cfg.Background = 200
		for i := range cfg.Specs {
			cfg.Specs[i].MeanConcepts = 40
		}
	} else if *scale != "full" {
		return fmt.Errorf("unknown -scale %q (want full or small)", *scale)
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	var r *experiments.Runner
	if *dbDir != "" {
		fmt.Fprintf(w, "BioNav experiment harness — workload db=%s\n\n", *dbDir)
		wl, err := workload.Load(*dbDir)
		if err != nil {
			return err
		}
		r = experiments.NewRunnerFor(wl)
		r.Clock = time.Now
		r.Policy = pol
	} else {
		fmt.Fprintf(w, "BioNav experiment harness — scale=%s seed=%d\n", *scale, *seed)
		fmt.Fprintf(w, "synthesizing workload (%d-concept hierarchy, %d queries)…\n\n",
			cfg.HierarchyNodes, len(cfg.Specs))
		var err error
		r, err = experiments.NewRunner(cfg)
		if err != nil {
			return err
		}
		r.Clock = time.Now
		r.Policy = pol
	}

	if *exp == "all" {
		if err := r.All(w); err != nil {
			return err
		}
	} else {
		t, err := r.Experiment(*exp)
		if err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if cols := experiments.ChartColumns(*exp); cols != nil {
			if err := experiments.RenderChart(w, t, cols); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
