package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bionav"
)

// testDB writes a small dataset to disk once per test.
func testDB(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	ds := bionav.GenerateDemo(bionav.DemoConfig{Seed: 3, Concepts: 1200, Citations: 300, MeanConcepts: 20})
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func demoTerm(t *testing.T, dir string) string {
	t.Helper()
	engine, err := bionav.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Suggestions(1)[0]
}

func TestOneShot(t *testing.T) {
	dir := testDB(t)
	term := demoTerm(t, dir)
	var out bytes.Buffer
	err := run([]string{"-db", dir, "-query", term, "-expands", "2"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "results for") || !strings.Contains(got, "navigation cost:") {
		t.Fatalf("output = %q", got)
	}
	if !strings.Contains(got, "[0] MESH") {
		t.Fatalf("tree missing root: %q", got)
	}
}

func TestOneShotNoMatch(t *testing.T) {
	dir := testDB(t)
	var out bytes.Buffer
	err := run([]string{"-db", dir, "-query", "zzznotaword"}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatal("expected error for empty result")
	}
}

func TestFlagsValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Fatal("missing -db/-demo accepted")
	}
	if err := run([]string{"-demo", "-db", "x"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("-demo with -db accepted")
	}
	if err := run([]string{"-db", "/nonexistent-dir-xyz"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad db dir accepted")
	}
	if err := run([]string{"-demo", "-k", "36"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("-k above the Opt-EdgeCut limit accepted")
	}
}

func TestREPLScript(t *testing.T) {
	dir := testDB(t)
	term := demoTerm(t, dir)
	script := strings.Join([]string{
		"help-me",         // unknown command → usage
		"expand 0",        // no navigation yet
		"suggest",         // term list
		"query " + term,   // start navigation
		"expand 0",        // expand root
		"cost",            //
		"results 0",       // list root citations
		"back",            // undo
		"tree",            // reprint
		"expand notanint", // usage error
		"query zzznope",   // failing query keeps old navigation
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := run([]string{"-db", dir}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"commands: query, expand",      // unknown command help
		"no active navigation",         // guarded action
		"results",                      // query echo
		"revealed",                     // expand
		"cost:",                        // cost line
		"usage: expand <node>",         // bad int
		"error:",                       // failing query
		"BioNav interactive navigator", // banner
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q\n%s", want, got)
		}
	}
}

func TestREPLEOF(t *testing.T) {
	dir := testDB(t)
	var out bytes.Buffer
	// EOF without "quit" must exit cleanly.
	if err := run([]string{"-db", dir}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyFlag(t *testing.T) {
	dir := testDB(t)
	term := demoTerm(t, dir)
	for _, pol := range []string{"bionav", "cached", "static", "topk"} {
		var out bytes.Buffer
		if err := run([]string{"-db", dir, "-policy", pol, "-query", term}, strings.NewReader(""), &out); err != nil {
			t.Fatalf("-policy %s: %v", pol, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-db", dir, "-policy", "quantum"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
