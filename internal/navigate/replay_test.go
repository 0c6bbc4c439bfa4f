package navigate

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"bionav/internal/core"
)

func TestExportReplayRoundTrip(t *testing.T) {
	nav := buildNav(t, 501, 180, 35)
	orig := NewSession(nav, core.NewHeuristicReducedOpt())

	// A realistic action sequence: expand twice, inspect, ignore, backtrack,
	// expand again.
	if _, err := orig.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	roots := orig.Active().VisibleRoots()
	for _, r := range roots {
		if r != nav.Root() && orig.Active().ComponentSize(r) > 1 {
			if _, err := orig.Expand(r); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := orig.ShowResults(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if err := orig.Ignore(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if err := orig.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}

	got, err := Replay(nav, core.NewHeuristicReducedOpt(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Identical visible state.
	a, b := orig.Active().VisibleRoots(), got.Active().VisibleRoots()
	if len(a) != len(b) {
		t.Fatalf("visible roots differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visible roots differ: %v vs %v", a, b)
		}
	}
	// Identical cost accounting.
	if orig.Cost() != got.Cost() {
		t.Fatalf("cost differs: %+v vs %+v", orig.Cost(), got.Cost())
	}
	// Identical log shape.
	if len(orig.Log()) != len(got.Log()) {
		t.Fatalf("log lengths differ")
	}
}

func TestReplayIsPolicyIndependent(t *testing.T) {
	nav := buildNav(t, 502, 150, 30)
	orig := NewSession(nav, core.NewHeuristicReducedOpt())
	if _, err := orig.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Replay under a completely different policy: the recorded cut wins.
	got, err := Replay(nav, core.StaticAll{}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Cost() != got.Cost() {
		t.Fatalf("replay depended on the policy: %+v vs %+v", orig.Cost(), got.Cost())
	}
}

// TestReplayErrorPaths pins down each Replay failure mode and — keeping
// bionav-lint ERR01 honest — asserts the underlying cause survives the
// %w wrapping where a sentinel exists to test against.
func TestReplayErrorPaths(t *testing.T) {
	nav := buildNav(t, 507, 90, 20)
	cases := []struct {
		name    string
		in      string
		substr  string // required fragment of the error text
		wantErr error  // optional sentinel that must survive wrapping
	}{
		{
			name:   "version mismatch",
			in:     `{"version": 99, "actions": []}`,
			substr: "unsupported version 99",
		},
		{
			name:   "unknown action kind",
			in:     `{"version": 1, "actions": [{"kind": "TELEPORT"}]}`,
			substr: `unknown action kind "TELEPORT"`,
		},
		{
			name: "cut edge not present in the tree",
			// Node 1's parent is the root (0); claiming (5→1) is a cut edge
			// must fail ActiveTree.Expand's navigation-edge check.
			in:     `{"version": 1, "actions": [{"kind": "EXPAND", "node": 0, "cut": [{"Parent": 5, "Child": 1}]}]}`,
			substr: "is not a navigation-tree edge",
		},
		{
			name: "cut edge listed twice",
			// An EdgeCut is a set (Definition 3): a recorded cut naming
			// (0→1) twice must fail ActiveTree.Expand, not apply.
			in:     `{"version": 1, "actions": [{"kind": "EXPAND", "node": 0, "cut": [{"Parent": 0, "Child": 1}, {"Parent": 0, "Child": 1}]}]}`,
			substr: "listed twice",
		},
		{
			name:    "truncated JSON",
			in:      `{"version": 1, "actions": [{"kind": "EXP`,
			substr:  "replay",
			wantErr: io.ErrUnexpectedEOF,
		},
		{
			name:   "expand with no cut",
			in:     `{"version": 1, "actions": [{"kind": "EXPAND", "node": 0}]}`,
			substr: "recorded EXPAND has no cut",
		},
		{
			name:   "showresults on hidden node",
			in:     `{"version": 1, "actions": [{"kind": "SHOWRESULTS", "node": 1}]}`,
			substr: "SHOWRESULTS on hidden node",
		},
		{
			name:   "backtrack with nothing to undo",
			in:     `{"version": 1, "actions": [{"kind": "BACKTRACK"}]}`,
			substr: "replay action 0 (BACKTRACK)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(nav, core.StaticAll{}, strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q missing %q", err, tc.substr)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %q does not wrap %v", err, tc.wantErr)
			}
		})
	}
}

// TestReplayWarmsSolverCache: replaying recorded cuts re-inserts them into
// the session solver cache, so a recovered session's BACKTRACK-then-EXPAND
// is answered from the cache instead of re-running the policy cold.
func TestReplayWarmsSolverCache(t *testing.T) {
	nav := buildNav(t, 509, 160, 30)
	orig := NewSession(nav, core.NewHeuristicReducedOpt())
	if _, err := orig.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(nav, core.NewHeuristicReducedOpt(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Backtrack(); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if stats := got.SolverCacheStats(); stats.Hits == 0 {
		t.Fatalf("re-EXPAND after replay+backtrack missed the warmed cache: %+v", stats)
	}
}

// TestExportedActionsReplayActionsRoundTrip drives the journal's wire
// path: per-action export frames replayed via ReplayActions reproduce the
// session byte-for-byte (Export output compared).
func TestExportedActionsReplayActionsRoundTrip(t *testing.T) {
	nav := buildNav(t, 511, 140, 28)
	orig := NewSession(nav, core.NewHeuristicReducedOpt())
	if _, err := orig.Expand(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.ShowResults(nav.Root()); err != nil {
		t.Fatal(err)
	}
	if err := orig.Backtrack(); err != nil {
		t.Fatal(err)
	}

	// Incremental framing: one action at a time, as the journal appends.
	var frames []json.RawMessage
	for i := 0; i < len(orig.Log()); i++ {
		fs, err := orig.ExportedActions(i)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fs[0])
	}
	got, err := ReplayActions(nav, core.NewHeuristicReducedOpt(), frames)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := orig.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Export(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("per-action replay diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
	if orig.Cost() != got.Cost() {
		t.Fatalf("cost differs: %+v vs %+v", orig.Cost(), got.Cost())
	}

	// Out-of-range export indices fail loudly.
	if _, err := orig.ExportedActions(len(orig.Log()) + 1); err == nil {
		t.Fatal("ExportedActions accepted an out-of-range index")
	}
	if _, err := orig.ExportedActions(-1); err == nil {
		t.Fatal("ExportedActions accepted a negative index")
	}
	// A non-action frame fails replay.
	if _, err := ReplayActions(nav, core.StaticAll{}, []json.RawMessage{json.RawMessage(`42`)}); err == nil {
		t.Fatal("ReplayActions accepted a non-object frame")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	nav := buildNav(t, 503, 80, 20)
	cases := map[string]string{
		"not json":       "{nope",
		"bad version":    `{"version": 99, "actions": []}`,
		"unknown action": `{"version": 1, "actions": [{"kind": "TELEPORT"}]}`,
		"cutless expand": `{"version": 1, "actions": [{"kind": "EXPAND", "node": 0}]}`,
		"invalid cut":    `{"version": 1, "actions": [{"kind": "EXPAND", "node": 0, "cut": [{"Parent": 5, "Child": 0}]}]}`,
	}
	for name, in := range cases {
		if _, err := Replay(nav, core.StaticAll{}, strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
