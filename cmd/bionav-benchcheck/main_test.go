package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidJSONL(t *testing.T) {
	p := writeFile(t, "ok.json",
		`{"Action":"output","Output":"BenchmarkPolyCut 1 100 ns/op\n"}`+"\n"+
			`{"Action":"pass","Package":"bionav/internal/core"}`+"\n")
	var out bytes.Buffer
	if err := run([]string{p}, &out); err != nil {
		t.Fatalf("valid file rejected: %v (%s)", err, out.String())
	}
	if !strings.Contains(out.String(), "2 lines ok") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestBlankLinesSkipped(t *testing.T) {
	p := writeFile(t, "gaps.json", "{\"Action\":\"pass\"}\n\n{\"Action\":\"pass\"}\n")
	if err := run([]string{p}, new(bytes.Buffer)); err != nil {
		t.Fatalf("blank separator rejected: %v", err)
	}
}

func TestBrokenLineRejected(t *testing.T) {
	p := writeFile(t, "broken.json",
		`{"Action":"pass"}`+"\n"+
			`# bionav/internal/core [build failed]`+"\n"+
			`{"Action":"fail"`+"\n")
	var out bytes.Buffer
	err := run([]string{p}, &out)
	if err == nil {
		t.Fatal("broken file accepted")
	}
	if !strings.Contains(out.String(), "line 2") || !strings.Contains(out.String(), "line 3") {
		t.Fatalf("offending lines not listed: %q", out.String())
	}
}

func TestNonObjectLineRejected(t *testing.T) {
	p := writeFile(t, "scalar.json", "{\"Action\":\"pass\"}\n42\n")
	if err := run([]string{p}, new(bytes.Buffer)); err == nil {
		t.Fatal("scalar JSON line accepted (must be an object)")
	}
}

func TestEmptyFileRejected(t *testing.T) {
	p := writeFile(t, "empty.json", "")
	if err := run([]string{p}, new(bytes.Buffer)); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestMissingFile(t *testing.T) {
	if err := run([]string{filepath.Join(t.TempDir(), "nope.json")}, new(bytes.Buffer)); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNoArgs(t *testing.T) {
	if err := run(nil, new(bytes.Buffer)); err == nil {
		t.Fatal("no-args run accepted")
	}
}

const loadStepTmpl = `{"record":"step","step":%d,"offeredRate":%g,"sessions":3,"aborted":0,"elapsedMs":100,` +
	`"requests":{"total":9,"ok":9,"degraded":0,"shed":0,"timeout":0,"error":0},` +
	`"client":{"p50Ms":1,"p95Ms":2,"p99Ms":3,"p999Ms":4,"maxMs":5,"meanMs":1.5,"achievedRps":90},` +
	`"server":{"apiRequests":9,"shed":0,"degraded":0,"timeouts":0,"p99Ms":3}}`

func loadReport(t *testing.T, steps int, withKnee bool) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"schema":"bionav-load/v1","seed":42,"steps":3,"sloP99Ms":500,"maxShedRate":0.01}` + "\n")
	for i := 0; i < steps; i++ {
		fmt.Fprintf(&b, loadStepTmpl+"\n", i, float64(2*(i+1)))
	}
	if withKnee {
		b.WriteString(`{"record":"knee","found":true,"step":2,"rate":8,"p99Ms":3,"shedRate":0}` + "\n")
	}
	return b.String()
}

func TestLoadSchemaValid(t *testing.T) {
	p := writeFile(t, "load.json", loadReport(t, 3, true))
	var out bytes.Buffer
	if err := run([]string{p}, &out); err != nil {
		t.Fatalf("valid load report rejected: %v (%s)", err, out.String())
	}
	if !strings.Contains(out.String(), "bionav-load/v1") {
		t.Fatalf("schema not recognized: %q", out.String())
	}
}

func TestLoadSchemaTooFewSteps(t *testing.T) {
	p := writeFile(t, "load.json", loadReport(t, 2, true))
	var out bytes.Buffer
	if err := run([]string{p}, &out); err == nil {
		t.Fatal("2-step capacity curve accepted, want >= 3")
	}
	if !strings.Contains(out.String(), "want >= 3") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestLoadSchemaMissingKnee(t *testing.T) {
	p := writeFile(t, "load.json", loadReport(t, 3, false))
	if err := run([]string{p}, new(bytes.Buffer)); err == nil {
		t.Fatal("kneeless capacity curve accepted")
	}
}

func TestLoadSchemaNonIncreasingRate(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"schema":"bionav-load/v1"}` + "\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, loadStepTmpl+"\n", i, 5.0) // flat offered rate
	}
	b.WriteString(`{"record":"knee","found":false,"step":0,"rate":0,"p99Ms":0,"shedRate":0}` + "\n")
	p := writeFile(t, "load.json", b.String())
	var out bytes.Buffer
	if err := run([]string{p}, &out); err == nil {
		t.Fatal("flat-rate sweep accepted")
	}
	if !strings.Contains(out.String(), "not above previous") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestLoadSchemaMissingQuantile(t *testing.T) {
	bad := strings.ReplaceAll(loadReport(t, 3, true), `"p99Ms":3,"p999Ms":4`, `"p999Ms":4`)
	p := writeFile(t, "load.json", bad)
	var out bytes.Buffer
	if err := run([]string{p}, &out); err == nil {
		t.Fatal("step without client p99 accepted")
	}
	if !strings.Contains(out.String(), "client.p99Ms") {
		t.Fatalf("output = %q", out.String())
	}
}

// A step whose client figures cannot all hold is rejected. The first
// step line is the one a loadgen that reported bucket upper bounds
// committed: p99 4.849663 ms above the largest observation, 4.817472 ms.
func TestLoadSchemaQuantileOrder(t *testing.T) {
	const upperBoundStep = `{"record":"step","step":0,"offeredRate":4,"sessions":9,"aborted":0,"elapsedMs":2172.396231,` +
		`"requests":{"total":54,"ok":54,"degraded":0,"shed":0,"timeout":0,"error":0},` +
		`"client":{"p50Ms":0.638975,"p95Ms":2.949119,"p99Ms":4.849663,"p999Ms":4.849663,"maxMs":4.817472,"meanMs":1.014294,"achievedRps":24.857343807461245},` +
		`"server":{"apiRequests":54,"shed":0,"degraded":0,"timeouts":0,"p99Ms":3.65}}`
	for _, c := range []struct{ name, from, to, want string }{
		{"committed step 0", fmt.Sprintf(loadStepTmpl, 0, 2.0), upperBoundStep, "client.p999Ms 4.849663 above client.maxMs 4.817472"},
		{"p95 above p99", `"p95Ms":2,"p99Ms":3`, `"p95Ms":3.5,"p99Ms":3`, "client.p95Ms 3.5 above client.p99Ms 3"},
		{"mean above max", `"meanMs":1.5`, `"meanMs":6`, "client.meanMs 6 above client.maxMs 5"},
	} {
		bad := strings.Replace(loadReport(t, 3, true), c.from, c.to, 1)
		if bad == loadReport(t, 3, true) {
			t.Fatalf("%s: fixture did not change", c.name)
		}
		var out bytes.Buffer
		if err := run([]string{writeFile(t, "load.json", bad)}, &out); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output = %q, want %q", c.name, out.String(), c.want)
		}
	}
}

// Plain go-test JSONL must not be mistaken for a load report.
func TestPlainJSONLUntouchedBySchemaCheck(t *testing.T) {
	p := writeFile(t, "core.json", `{"Action":"pass","Package":"x"}`+"\n")
	var out bytes.Buffer
	if err := run([]string{p}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "bionav-load") {
		t.Fatalf("plain JSONL misdetected: %q", out.String())
	}
}
