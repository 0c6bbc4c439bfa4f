// Command servebench is the end-to-end benchmark of BioNav's serving path:
// keyword query → navigation tree (index search, nav-tree build or cache
// hit) → EXPAND (k-partition + Opt-EdgeCut on the reduced tree) →
// rendered response, with live-corpus ingestion riding along in one
// workload.
//
//	bash servebench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it boots the real HTTP server in process on a loopback
// port (database loaded from disk, exactly as bionav-server -db does),
// drives it with TOPDOWN users and reports the end-to-end
// metrics. With --trace 1 it replays the same sessions in process
// straight against the layers, records a span around every layer call,
// writes the spans to .bench_build/servebench/ and reports per-layer self
// times. Either way every response is checked, and the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// outDir holds everything a run leaves behind: the per-run database and
// the trace files. It lives in the checkout the benchmark runs from.
const outDir = ".bench_build/servebench"

// workloadSpec is one traffic mix. Every session is the bionav-loadgen
// user (see session); the spec sets the keys and the ingestion.
type workloadSpec struct {
	cold   bool // every session queries a key never seen before
	ingest bool // a citation batch goes in before every block of sessions but the first
}

// Every workload is one closed-loop user without think time, so its
// latencies are service times without queueing. They split the serving
// path along its caches: explore repeats the Table I queries, so nav trees
// come from the cache and the time goes to EXPAND; cold-query never
// repeats a key, so every query pays index search and nav-tree build;
// explore-ingest is explore with a citation batch ingested before every
// block of sessions, bumping the dataset epoch, which invalidates cached
// trees by version: each keyword's first query in a block rebuilds its
// tree.
var workloads = map[string]workloadSpec{
	"explore":        {},
	"cold-query":     {cold: true},
	"explore-ingest": {ingest: true},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	res, err := run(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(args []string, log io.Writer) (*result, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(log)
	name := fs.String("workload", "explore", "traffic mix: explore, cold-query or explore-ingest")
	seed := fs.Uint64("seed", 1, "input seed: session order, cold-query keys and ingest batches derive from it")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end run over HTTP, 1 = traced per-layer replay")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	spec, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))

	in, err := newInputs(*seed, spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	var rep *report
	if *trace == 1 {
		db := filepath.Join(work, "db")
		if err := in.dataset.Save(db); err != nil {
			return nil, fmt.Errorf("save dataset: %w", err)
		}
		tracePath := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		rep, err = replayRun(in, db, window, tracePath)
	} else {
		rep, err = httpRun(in, work, window)
	}
	if err != nil {
		return nil, err
	}
	for _, msg := range rep.violations {
		fmt.Fprintln(log, "check failed:", msg)
	}
	fmt.Fprintf(log, "%s seed %d trace %d: %d attempted, %d failed, %d check violations\n",
		*name, *seed, *trace, rep.attempted, rep.failed, rep.violationCount)
	for _, line := range rep.info {
		fmt.Fprintln(log, line)
	}
	return &result{
		Correct:   rep.violationCount == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

// report is what one mode hands back to run.
type report struct {
	attempted, failed int
	violationCount    int
	violations        []string // the first few, for the log
	info              []string // human-readable extras for stderr
	metrics           map[string]metric
}

// violate records a failed correctness check.
func (r *report) violate(format string, args ...any) {
	r.violationCount++
	if len(r.violations) < 10 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}
