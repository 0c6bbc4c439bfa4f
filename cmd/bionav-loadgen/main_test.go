package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSelfHostedSweep drives the whole binary end to end: synthesize
// the small workload, boot the loopback server, sweep three steps, and
// check the emitted BENCH_load.json parses with the expected records.
func TestRunSelfHostedSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-scale", "small", "-seed", "42",
		"-rate", "10", "-rate-factor", "2", "-steps", "3",
		"-step-duration", "300ms", "-think", "2ms", "-actions", "4",
		"-slo-p99", "10s", "-max-shed-rate", "1",
		"-out", out,
	}, new(bytes.Buffer), &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1+3+1 {
		t.Fatalf("got %d lines, want header + 3 steps + knee:\n%s", len(lines), raw)
	}
	var head struct {
		Schema string `json:"schema"`
		Seed   uint64 `json:"seed"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.Schema != "bionav-load/v1" || head.Seed != 42 {
		t.Fatalf("header = %+v", head)
	}
	totalOK := 0.0
	for _, ln := range lines[1:4] {
		var step struct {
			Record   string `json:"record"`
			Requests struct {
				OK      float64 `json:"ok"`
				Error   float64 `json:"error"`
				Timeout float64 `json:"timeout"`
			} `json:"requests"`
		}
		if err := json.Unmarshal([]byte(ln), &step); err != nil {
			t.Fatal(err)
		}
		if step.Record != "step" {
			t.Fatalf("record = %q, want step", step.Record)
		}
		if step.Requests.Error != 0 {
			t.Fatalf("sweep produced errors:\n%s", ln)
		}
		totalOK += step.Requests.OK
	}
	if totalOK == 0 {
		t.Fatalf("no successful requests across the sweep:\n%s", raw)
	}
	var knee struct {
		Record string `json:"record"`
		Found  bool   `json:"found"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &knee); err != nil {
		t.Fatal(err)
	}
	if knee.Record != "knee" || !knee.Found {
		t.Fatalf("knee = %+v, want found under a 10s SLO", knee)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	err := run(context.Background(), []string{"-scale", "galactic"}, new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "galactic") {
		t.Fatalf("err = %v, want unknown-scale rejection", err)
	}
}

// TestRunRejectsUnknownPolicy: a -policy spelling core.PolicyByName
// refuses stops the run before any workload is synthesized, rather than
// self-hosting the default policy under the requested name.
func TestRunRejectsUnknownPolicy(t *testing.T) {
	for _, name := range []string{"poly", "opt", "bogus"} {
		err := run(context.Background(), []string{"-policy", name}, new(bytes.Buffer), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("-policy %s: err = %v, want unknown-policy rejection", name, err)
		}
	}
}
