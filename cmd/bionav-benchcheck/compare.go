package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// The compared per-operation figures, in column order.
var compareUnits = []string{"ns/op", "B/op", "allocs/op"}

// benchRuns holds every recorded value of each unit for one benchmark.
type benchRuns map[string][]float64

// compareFiles implements -compare OLD NEW: one row per benchmark name
// (with its -N GOMAXPROCS suffix, so runs at different GOMAXPROCS never
// pair up) giving the old and new ns/op, B/op and allocs/op and their
// relative change. A name recorded several times (-count) reports the
// median of its runs. Names present on one side only are listed as added
// or removed. A path of "-" reads standard input.
func compareFiles(oldPath, newPath string, stdin io.Reader, stdout io.Writer) error {
	read := func(path string) (map[string]benchRuns, error) {
		if path == "-" {
			return readBenchJSON(stdin)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return readBenchJSON(f)
	}
	oldB, err := read(oldPath)
	if err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	newB, err := read(newPath)
	if err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}
	if len(oldB) == 0 {
		return fmt.Errorf("%s: no benchmark results", oldPath)
	}
	if len(newB) == 0 {
		return fmt.Errorf("%s: no benchmark results", newPath)
	}

	names := make([]string, 0, len(oldB)+len(newB))
	for name := range oldB {
		names = append(names, name)
	}
	for name := range newB {
		if _, ok := oldB[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	header := "benchmark\t"
	for _, u := range compareUnits {
		header += u + " old\t" + u + " new\tdelta\t"
	}
	fmt.Fprintln(tw, header)
	var added, removed []string
	for _, name := range names {
		o, inOld := oldB[name]
		n, inNew := newB[name]
		switch {
		case !inNew:
			removed = append(removed, name)
			continue
		case !inOld:
			added = append(added, name)
			continue
		}
		row := name + "\t"
		for _, u := range compareUnits {
			ov, okO := median(o[u])
			nv, okN := median(n[u])
			row += cell(ov, okO) + "\t" + cell(nv, okN) + "\t" + delta(ov, nv, okO && okN) + "\t"
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, name := range added {
		fmt.Fprintf(stdout, "added: %s\n", name)
	}
	for _, name := range removed {
		fmt.Fprintf(stdout, "removed: %s\n", name)
	}
	return nil
}

// readBenchJSON extracts benchmark result lines from `go test -json`
// output. A result line can arrive split over several output events of
// one test, so each (package, test) stream is reassembled before it is
// parsed.
func readBenchJSON(r io.Reader) (map[string]benchRuns, error) {
	streams := make(map[string]*strings.Builder)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Action, Package, Test, Output string
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		b, ok := streams[key]
		if !ok {
			b = new(strings.Builder)
			streams[key] = b
			order = append(order, key)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]benchRuns)
	for _, key := range order {
		for _, line := range strings.Split(streams[key].String(), "\n") {
			name, vals, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			runs := out[name]
			if runs == nil {
				runs = make(benchRuns)
				out[name] = runs
			}
			for _, u := range compareUnits {
				if v, ok := vals[u]; ok {
					runs[u] = append(runs[u], v)
				}
			}
		}
	}
	return out, nil
}

// parseBenchLine parses one result line of the testing package's
// benchmark output: the name, the iteration count, then value-unit pairs.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", nil, false
	}
	vals := make(map[string]float64)
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[f[i+1]] = v
	}
	return f[0], vals, true
}

func median(v []float64) (float64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2], true
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2, true
}

func cell(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func delta(o, n float64, ok bool) string {
	switch {
	case !ok:
		return "-"
	case o == n:
		return "0%"
	case o == 0:
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}
