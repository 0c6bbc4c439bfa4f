package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// benchEvents renders `go test -json` output events for result lines,
// splitting each line after its name the way the testing package does.
func benchEvents(lines ...string) string {
	var b strings.Builder
	emit := func(action, test, output string) {
		ev, _ := json.Marshal(map[string]string{
			"Action": action, "Package": "bionav/internal/core", "Test": test, "Output": output,
		})
		b.Write(ev)
		b.WriteByte('\n')
	}
	for _, l := range lines {
		name, rest, _ := strings.Cut(l, "\t")
		emit("output", name, name+"\t")
		emit("output", name, rest+"\n")
	}
	emit("pass", "", "")
	return b.String()
}

func TestCompareReportsDeltas(t *testing.T) {
	oldP := writeFile(t, "old.json", benchEvents(
		"BenchmarkKPartition-2\t100\t1000 ns/op\t200 B/op\t50 allocs/op",
		"BenchmarkGone\t10\t5 ns/op",
	))
	// Three runs of one name: the median (500) is compared.
	newP := writeFile(t, "new.json", benchEvents(
		"BenchmarkKPartition-2\t100\t400 ns/op\t200 B/op\t3 allocs/op",
		"BenchmarkKPartition-2\t100\t500 ns/op\t200 B/op\t3 allocs/op",
		"BenchmarkKPartition-2\t100\t900 ns/op\t200 B/op\t3 allocs/op",
		"BenchmarkKPartition-4\t100\t300 ns/op\t200 B/op\t3 allocs/op",
	))
	var out bytes.Buffer
	if err := run([]string{"-compare", oldP, newP}, &out); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "BenchmarkKPartition-2 ") {
			row = l
		}
	}
	if got := strings.Fields(row); strings.Join(got, " ") != "BenchmarkKPartition-2 1000 500 -50.0% 200 200 0% 50 3 -94.0%" {
		t.Fatalf("row = %q in\n%s", row, out.String())
	}
	for _, want := range []string{"added: BenchmarkKPartition-4", "removed: BenchmarkGone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestCompareReadsStdin(t *testing.T) {
	p := writeFile(t, "new.json", benchEvents("BenchmarkX\t1\t10 ns/op"))
	var out bytes.Buffer
	if err := compareFiles("-", p, strings.NewReader(benchEvents("BenchmarkX\t1\t20 ns/op")), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-50.0%") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestCompareRejectsFilesWithoutResults(t *testing.T) {
	empty := writeFile(t, "none.json", `{"Action":"pass","Package":"bionav"}`+"\n")
	full := writeFile(t, "some.json", benchEvents("BenchmarkX\t1\t10 ns/op"))
	for _, args := range [][]string{{"-compare", empty, full}, {"-compare", full, empty}, {"-compare", full}} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
