// Command bionav-benchcheck validates machine-readable benchmark files.
// `make bench-json` appends several `go test -json` runs into
// BENCH_core.json, so the file's integrity invariant is JSON Lines:
// every line must parse as a standalone JSON object. A truncated run, an
// interleaved compiler diagnostic, or a stray shell error breaks that
// silently — and every downstream before/after comparison with it.
//
//	bionav-benchcheck BENCH_core.json [more.json ...]
//
// Exits non-zero listing each offending line. Empty files are rejected
// too: a bench run that produced nothing is not a baseline.
//
// With -compare it instead reports the trajectory between two such
// files, per benchmark: ns/op, B/op and allocs/op, old and new, with the
// relative change (`make bench-diff` compares the working tree's
// BENCH_core.json with the committed one):
//
//	bionav-benchcheck -compare OLD NEW
//
// A path of "-" reads standard input.
//
// Files whose first line carries `"schema":"bionav-load/v1"` (the
// capacity curves bionav-loadgen emits) are additionally validated
// against that schema: >= 3 step records with strictly increasing
// offered rates, client quantiles in order (p50 <= p95 <= p99 <= p99.9
// <= max, mean <= max), server counter deltas, full outcome accounting,
// and exactly one knee record.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav-benchcheck: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "-compare" {
		if len(args) != 3 {
			return fmt.Errorf("usage: bionav-benchcheck -compare OLD NEW")
		}
		return compareFiles(args[1], args[2], os.Stdin, stdout)
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: bionav-benchcheck FILE [FILE ...] | -compare OLD NEW")
	}
	bad := 0
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, objs, errs := checkJSONL(f)
		f.Close()
		if n == 0 {
			errs = append(errs, fmt.Errorf("file is empty"))
		}
		kind := "lines"
		if len(errs) == 0 && isLoadReport(objs) {
			kind = loadSchema + " lines"
			errs = append(errs, checkLoadV1(objs)...)
		}
		for _, e := range errs {
			fmt.Fprintf(stdout, "%s: %v\n", path, e)
			bad++
		}
		if len(errs) == 0 {
			fmt.Fprintf(stdout, "%s: %d %s ok\n", path, n, kind)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invalid line(s)", bad)
	}
	return nil
}

// checkJSONL scans r line by line, returning the number of non-empty
// lines, their parsed objects, and one error per line that is not a
// standalone JSON object.
func checkJSONL(r io.Reader) (int, []map[string]json.RawMessage, []error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var errs []error
	var objs []map[string]json.RawMessage
	n, lineno := 0, 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			errs = append(errs, fmt.Errorf("line %d: %w", lineno, err))
			continue
		}
		objs = append(objs, obj)
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("line %d: %w", lineno, err))
	}
	return n, objs, errs
}

// loadSchema is the capacity-curve schema bionav-loadgen emits
// (internal/loadgen/report.go).
const loadSchema = "bionav-load/v1"

// isLoadReport detects the schema marker on the first line.
func isLoadReport(objs []map[string]json.RawMessage) bool {
	if len(objs) == 0 {
		return false
	}
	var schema string
	_ = json.Unmarshal(objs[0]["schema"], &schema)
	return schema == loadSchema
}

// checkLoadV1 validates the shape of a bionav-load/v1 capacity curve: at
// least three step records carrying ordered client quantiles, server
// deltas, and full outcome accounting, offered rates strictly increasing,
// and exactly one knee record.
func checkLoadV1(objs []map[string]json.RawMessage) []error {
	var errs []error
	steps, knees := 0, 0
	lastRate := 0.0
	for i, obj := range objs[1:] {
		lineno := i + 2 // 1-based, past the header
		var record string
		_ = json.Unmarshal(obj["record"], &record)
		switch record {
		case "step":
			steps++
			var step struct {
				OfferedRate float64                     `json:"offeredRate"`
				Requests    map[string]json.RawMessage  `json:"requests"`
				Client      map[string]float64          `json:"client"`
				Server      map[string]*json.RawMessage `json:"server"`
			}
			if err := json.Unmarshal(mustMarshal(obj), &step); err != nil {
				errs = append(errs, fmt.Errorf("line %d: bad step record: %w", lineno, err))
				continue
			}
			if step.OfferedRate <= lastRate {
				errs = append(errs, fmt.Errorf("line %d: offeredRate %v not above previous step's %v", lineno, step.OfferedRate, lastRate))
			}
			lastRate = step.OfferedRate
			for _, k := range []string{"total", "ok", "degraded", "shed", "timeout", "error"} {
				if _, ok := step.Requests[k]; !ok {
					errs = append(errs, fmt.Errorf("line %d: step record missing requests.%s", lineno, k))
				}
			}
			for _, k := range []string{"p50Ms", "p95Ms", "p99Ms", "p999Ms", "maxMs", "meanMs", "achievedRps"} {
				if _, ok := step.Client[k]; !ok {
					errs = append(errs, fmt.Errorf("line %d: step record missing client.%s", lineno, k))
				}
			}
			// Latency figures that cannot all be true at once: an estimate
			// above the largest observation, or quantiles out of order.
			c := step.Client
			for _, pair := range [][2]string{
				{"p50Ms", "p95Ms"}, {"p95Ms", "p99Ms"}, {"p99Ms", "p999Ms"}, {"p999Ms", "maxMs"}, {"meanMs", "maxMs"},
			} {
				if c[pair[0]] > c[pair[1]] {
					errs = append(errs, fmt.Errorf("line %d: client.%s %v above client.%s %v",
						lineno, pair[0], c[pair[0]], pair[1], c[pair[1]]))
				}
			}
			for _, k := range []string{"apiRequests", "shed", "p99Ms"} {
				if _, ok := step.Server[k]; !ok {
					errs = append(errs, fmt.Errorf("line %d: step record missing server.%s", lineno, k))
				}
			}
		case "knee":
			knees++
			if _, ok := obj["found"]; !ok {
				errs = append(errs, fmt.Errorf("line %d: knee record missing found", lineno))
			}
		default:
			errs = append(errs, fmt.Errorf("line %d: unknown record %q", lineno, record))
		}
	}
	if steps < 3 {
		errs = append(errs, fmt.Errorf("capacity curve has %d step(s), want >= 3", steps))
	}
	if knees != 1 {
		errs = append(errs, fmt.Errorf("capacity curve has %d knee record(s), want exactly 1", knees))
	}
	return errs
}

// mustMarshal round-trips a parsed object so it can be re-decoded into a
// typed view; the input came from json.Unmarshal, so this cannot fail.
func mustMarshal(obj map[string]json.RawMessage) []byte {
	b, err := json.Marshal(obj)
	if err != nil {
		panic(err)
	}
	return b
}
