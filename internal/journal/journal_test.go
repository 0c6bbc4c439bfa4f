package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bionav/internal/wal"
)

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func rec(i int) Record {
	return Record{
		Type:    TypeAction,
		Session: "s00000001",
		At:      int64(i + 1),
		Action:  json.RawMessage(fmt.Sprintf(`{"kind":"EXPAND","node":%d}`, i)),
	}
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Append(Record{Type: TypeCreate, Session: "s00000001", Keywords: "brca1", Policy: "heuristic", At: 7}); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 5)
	if err := j.Append(Record{Type: TypeClose, Session: "s00000001", At: 99}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	got := j2.Recovered()
	if len(got) != 7 {
		t.Fatalf("recovered %d records, want 7", len(got))
	}
	if got[0].Type != TypeCreate || got[0].Keywords != "brca1" || got[0].Policy != "heuristic" {
		t.Fatalf("create record mangled: %+v", got[0])
	}
	for i := 1; i <= 5; i++ {
		want := rec(i - 1)
		if got[i].Type != TypeAction || got[i].At != want.At || string(got[i].Action) != string(want.Action) {
			t.Fatalf("record %d mangled: %+v", i, got[i])
		}
	}
	if got[6].Type != TypeClose {
		t.Fatalf("last record = %+v, want close", got[6])
	}
	if j2.TornTails() != 0 {
		t.Fatalf("clean journal reported %d torn tails", j2.TornTails())
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 50)
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 50 {
		t.Fatalf("recovered %d records across segments, want 50", len(j2.Recovered()))
	}
}

// corruptTail flips a byte inside the last frame of the newest non-empty
// segment, simulating a torn write.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	newest, size := "", int64(-1)
	for _, p := range entries {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > int64(len(wal.Magic)) && (newest == "" || p > newest) {
			newest, size = p, st.Size()
		}
	}
	if newest == "" {
		t.Fatalf("no non-empty segment, sizes up to %d", size)
	}
	return newest
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, j, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the newest segment mid-frame.
	seg := newestSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", len(j2.Recovered()))
	}
	if j2.TornTails() != 1 {
		t.Fatalf("TornTails = %d, want 1", j2.TornTails())
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation is persistent: a third open is clean.
	j3 := mustOpen(t, dir, Options{})
	if len(j3.Recovered()) != 9 || j3.TornTails() != 0 {
		t.Fatalf("third open: %d records, %d torn tails; want 9, 0",
			len(j3.Recovered()), j3.TornTails())
	}
}

func TestCorruptFrameCRC(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, j, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a payload byte of the last record
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 2 || j2.TornTails() != 1 {
		t.Fatalf("after CRC corruption: %d records, %d torn tails; want 2, 1",
			len(j2.Recovered()), j2.TornTails())
	}
}

func TestMidJournalCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 50)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := j.segments()
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %v (%v)", segs, err)
	}
	// Corrupt the first segment's second frame length: everything after
	// that point — including whole later segments — must be dropped.
	first := j.segPath(segs[0])
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := binary.LittleEndian.Uint32(b[len(wal.Magic):])
	off := len(wal.Magic) + wal.HeaderLen + int(firstLen)
	binary.LittleEndian.PutUint32(b[off:], wal.MaxRecord+1)
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 1 {
		t.Fatalf("recovered %d records, want the 1 before the corruption", len(j2.Recovered()))
	}
	segs2, err := j2.segments()
	if err != nil {
		t.Fatal(err)
	}
	// Only the truncated first segment and the freshly opened one remain.
	if len(segs2) != 2 {
		t.Fatalf("later segments not dropped: %v", segs2)
	}
}

// TestSegmentWithoutMagicRecovered: a segment shorter than its magic — a
// crash between creating a segment and writing the magic — is repaired by
// the Open that finds it, counted once, and never again taken for
// mid-journal corruption: the records appended after that Open survive the
// next one.
func TestSegmentWithoutMagicRecovered(t *testing.T) {
	for _, tc := range []struct{ name, stub string }{{"empty", ""}, {"partial magic", wal.Magic[:2]}} {
		stub := tc.stub
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			appendN(t, j, 3)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "journal-00000002.wal"), []byte(stub), 0o644); err != nil {
				t.Fatal(err)
			}
			j2 := mustOpen(t, dir, Options{Fsync: FsyncAlways})
			if len(j2.Recovered()) != 3 || j2.TornTails() != 1 {
				t.Fatalf("open over the stub: %d records, %d torn tails; want 3, 1",
					len(j2.Recovered()), j2.TornTails())
			}
			appendN(t, j2, 2)
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3 := mustOpen(t, dir, Options{})
			if len(j3.Recovered()) != 5 || j3.TornTails() != 0 {
				t.Fatalf("next open: %d records, %d torn tails; want 5, 0",
					len(j3.Recovered()), j3.TornTails())
			}
		})
	}
}

// TestLegacySegmentRefused: a segment in the retired BNAVWAL1 format
// (8-byte magic, IEEE CRC frames) is not read. It is counted as one torn
// tail, logged once by name and rewritten empty, so the next Open is clean.
func TestLegacySegmentRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := bytes.NewBufferString("BNAVWAL1")
	for i := 0; i < 3; i++ {
		payload, err := json.Marshal(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		legacy.Write(hdr[:])
		legacy.Write(payload)
	}
	seg := filepath.Join(dir, "journal-00000001.wal")
	if err := os.WriteFile(seg, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	j := mustOpen(t, dir, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if len(j.Recovered()) != 0 || j.TornTails() != 1 {
		t.Fatalf("legacy segment: %d records, %d torn tails; want 0, 1", len(j.Recovered()), j.TornTails())
	}
	if n := strings.Count(logs.String(), seg); n != 1 || !strings.Contains(logs.String(), "level=WARN") {
		t.Fatalf("want one warning naming %s, got:\n%s", seg, logs.String())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	if len(j2.Recovered()) != 0 || j2.TornTails() != 0 {
		t.Fatalf("second open: %d records, %d torn tails; want 0, 0", len(j2.Recovered()), j2.TornTails())
	}
}

// TestAppendAfterWriteErrorStartsFreshSegment: a real write failure
// poisons the segment's writer — nothing after a partial frame is
// readable — so the next append moves to a fresh segment, and both the
// records before the failure and those after it recover.
func TestAppendAfterWriteErrorStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff})
	appendN(t, j, 2)
	j.mu.Lock()
	seg := j.seg
	j.w.Close() // the segment's file is gone: the next write fails
	j.mu.Unlock()
	if err := j.Append(rec(2)); err == nil {
		t.Fatal("append to a closed segment succeeded")
	}
	if err := j.Append(rec(3)); err != nil {
		t.Fatalf("append after a failed write: %v", err)
	}
	j.mu.Lock()
	moved := j.seg != seg
	j.mu.Unlock()
	if !moved {
		t.Fatal("append after a failed write stayed in the poisoned segment")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	got := j2.Recovered()
	if len(got) != 3 || got[2].At != rec(3).At || j2.TornTails() != 0 {
		t.Fatalf("recovered %+v with %d torn tails, want records 0, 1, 3 and none", got, j2.TornTails())
	}
}

func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, j, 40)
	snapshot := []Record{
		{Type: TypeCreate, Session: "s00000002", Keywords: "p53", Policy: "poly", At: 5},
		{Type: TypeAction, Session: "s00000002", Action: json.RawMessage(`{"kind":"BACKTRACK"}`), At: 6},
	}
	if err := j.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	segs, err := j.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", len(segs))
	}
	if j.Recovered() != nil {
		t.Fatal("Recovered not cleared by checkpoint")
	}
	// Post-checkpoint appends land after the snapshot.
	if err := j.Append(rec(99)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	got := j2.Recovered()
	if len(got) != 3 {
		t.Fatalf("recovered %d records after checkpoint, want 3", len(got))
	}
	if got[0].Type != TypeCreate || got[0].Session != "s00000002" {
		t.Fatalf("snapshot create lost: %+v", got[0])
	}
	if got[2].At != rec(99).At {
		t.Fatalf("post-checkpoint append lost: %+v", got[2])
	}
}

func TestIntervalFsyncMarksClean(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	appendN(t, j, 3)
	deadline := time.Now().Add(2 * time.Second)
	for {
		j.mu.Lock()
		dirty := j.dirty
		j.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err == nil {
		t.Fatal("append after close succeeded")
	} else if !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed in the chain", err)
	}
	// Close is idempotent.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFsync(t *testing.T) {
	for _, ok := range []string{"always", "interval", "off"} {
		if _, err := ParseFsync(ok); err != nil {
			t.Errorf("ParseFsync(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Error("ParseFsync accepted garbage")
	}
}

func TestEmptyDirOpens(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	j := mustOpen(t, dir, Options{})
	if got := j.Recovered(); len(got) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(got))
	}
}
