// Command bionav is an interactive terminal navigator over a BioNav
// database: run a keyword query, then drill into the result tree with the
// paper's cost-optimized EXPAND, plus SHOWRESULTS and BACKTRACK.
//
//	bionav -demo -query "prothymosin"          # one-shot: print the tree
//	bionav -db ./db                            # interactive REPL
//
// REPL commands:
//
//	query <keywords>   run a keyword search and show the root
//	expand <n>         EXPAND node n (numbers shown in the tree)
//	results <n>        SHOWRESULTS on node n
//	back               BACKTRACK the last expansion
//	tree               reprint the visible tree
//	cost               print the accumulated navigation cost
//	suggest            show common query terms of this dataset
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"bionav"
	"bionav/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bionav", flag.ContinueOnError)
	var (
		dbDir   = fs.String("db", "", "BioNav database directory (from bionav-gen)")
		demo    = fs.Bool("demo", false, "use an in-memory demo dataset instead of -db")
		query   = fs.String("query", "", "one-shot query: print the tree after -expands expansions and exit")
		expands = fs.Int("expands", 1, "one-shot: number of root expansions")
		policyK = fs.Int("k", 10, "Heuristic-ReducedOpt reduced-tree budget")
		policy  = fs.String("policy", "bionav", "expansion policy: bionav | cached | static | topk")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := core.PolicyByName("heuristic", *policyK); err != nil {
		return fmt.Errorf("-k: %w", err)
	}

	engine, err := openEngine(*dbDir, *demo, stdout)
	if err != nil {
		return err
	}
	switch *policy {
	case "bionav":
		engine.SetPolicy(bionav.HeuristicPolicy(*policyK))
	case "cached":
		engine.SetPolicy(bionav.CachedHeuristicPolicy(*policyK))
	case "static":
		engine.SetPolicy(bionav.StaticPolicy())
	case "topk":
		engine.SetPolicy(bionav.TopKPolicy(10))
	default:
		return fmt.Errorf("unknown -policy %q (want bionav, cached, static or topk)", *policy)
	}

	if *query != "" {
		return oneShot(engine, *query, *expands, stdout)
	}
	repl(engine, stdin, stdout)
	return nil
}

func openEngine(dbDir string, demo bool, out io.Writer) (*bionav.Engine, error) {
	switch {
	case demo && dbDir != "":
		return nil, fmt.Errorf("-demo and -db are mutually exclusive")
	case demo:
		fmt.Fprintln(out, "generating demo dataset…")
		return bionav.NewEngine(bionav.GenerateDemo(bionav.DemoConfig{})), nil
	case dbDir != "":
		return bionav.Open(dbDir)
	default:
		return nil, fmt.Errorf("pass -db <dir> or -demo")
	}
}

func oneShot(engine *bionav.Engine, query string, expands int, out io.Writer) error {
	nav, err := engine.Navigate(query)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d results for %q\n", nav.Results(), query)
	for i := 0; i < expands; i++ {
		if _, err := nav.Expand(nav.Root()); err != nil {
			break // root fully expanded
		}
	}
	printTree(nav, out)
	c := nav.Cost()
	fmt.Fprintf(out, "navigation cost: %d (%d EXPANDs, %d concepts)\n",
		c.Navigation(), c.Expands, c.ConceptsRevealed)
	return nil
}

func repl(engine *bionav.Engine, stdin io.Reader, out io.Writer) {
	sc := bufio.NewScanner(stdin)
	var nav *bionav.Navigation
	fmt.Fprintln(out, `BioNav interactive navigator — type "query <keywords>" to begin, "quit" to exit.`)
	for {
		fmt.Fprint(out, "bionav> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		cmd, arg, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		arg = strings.TrimSpace(arg)
		switch cmd {
		case "", "#":
		case "quit", "exit", "q":
			return
		case "suggest":
			fmt.Fprintln(out, strings.Join(engine.Suggestions(15), ", "))
		case "query":
			n, err := engine.Navigate(arg)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			nav = n
			fmt.Fprintf(out, "%d results\n", nav.Results())
			printTree(nav, out)
		case "expand", "e":
			if !ensureNav(nav, out) {
				continue
			}
			node, err := strconv.Atoi(arg)
			if err != nil {
				fmt.Fprintln(out, "usage: expand <node>")
				continue
			}
			revealed, err := nav.Expand(node)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "revealed %d concepts\n", len(revealed))
			printTree(nav, out)
		case "results", "r":
			if !ensureNav(nav, out) {
				continue
			}
			node, err := strconv.Atoi(arg)
			if err != nil {
				fmt.Fprintln(out, "usage: results <node>")
				continue
			}
			cits, err := nav.ShowResults(node)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, c := range cits {
				fmt.Fprintf(out, "  [%d] %s (%d)\n", c.ID, c.Title, c.Year)
			}
		case "back", "b":
			if !ensureNav(nav, out) {
				continue
			}
			if err := nav.Backtrack(); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			printTree(nav, out)
		case "tree", "t":
			if ensureNav(nav, out) {
				printTree(nav, out)
			}
		case "cost":
			if ensureNav(nav, out) {
				c := nav.Cost()
				fmt.Fprintf(out, "cost: %d (%d EXPANDs, %d concepts, %d citations listed)\n",
					c.Total(), c.Expands, c.ConceptsRevealed, c.CitationsListed)
			}
		default:
			fmt.Fprintln(out, "commands: query, expand, results, back, tree, cost, suggest, quit")
		}
	}
}

func ensureNav(nav *bionav.Navigation, out io.Writer) bool {
	if nav == nil {
		fmt.Fprintln(out, `no active navigation — run "query <keywords>" first`)
		return false
	}
	return true
}

func printTree(nav *bionav.Navigation, out io.Writer) {
	for _, row := range nav.Visible() {
		marker := ""
		if row.Expandable {
			marker = " >>>"
		}
		fmt.Fprintf(out, "%s[%d] %s (%d)%s\n",
			strings.Repeat("  ", row.Depth), row.ID, row.Label, row.Count, marker)
	}
}
