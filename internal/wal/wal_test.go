package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// frame is one scanned frame: its payload and the payload's offset.
type frame struct {
	off     int64
	payload string
}

func writeLog(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	w, err := OpenWriter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t testing.TB, path string) ([]frame, int64, Status) {
	t.Helper()
	var got []frame
	end, st, err := Scan(path, func(off int64, p []byte) error {
		got = append(got, frame{off, string(p)})
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got, end, st
}

func sameFrames(a, b []frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrashPoints is the exhaustive crash-point test of the log format.
// For every prefix of a four-frame log — every byte offset a crash can
// stop a write at — Scan must yield exactly the frames wholly inside it,
// report a clean end only at a frame boundary, and leave an end a Writer
// can reopen at and append after. For every single-byte corruption it must
// yield exactly the frames before the damaged one and never call the log
// clean.
func TestCrashPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	payloads := [][]byte{{}, {0x7f}, []byte("hello"), bytes.Repeat([]byte("0123456789"), 4)}
	writeLog(t, path, payloads...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames []frame
	var ends []int64 // where each frame ends
	pos := int64(len(Magic))
	for _, p := range payloads {
		frames = append(frames, frame{pos + HeaderLen, string(p)})
		pos += HeaderLen + int64(len(p))
		ends = append(ends, pos)
	}
	if pos != int64(len(full)) {
		t.Fatalf("log is %d bytes, frames account for %d", len(full), pos)
	}
	extra := []byte("appended after the crash")

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantEnd, n := int64(0), 0
		if cut >= int64(len(Magic)) {
			wantEnd = int64(len(Magic))
		}
		for n < len(ends) && ends[n] <= cut {
			wantEnd = ends[n]
			n++
		}
		got, end, st := scanAll(t, path)
		if !sameFrames(got, frames[:n]) || end != wantEnd {
			t.Fatalf("cut=%d: frames %v end %d, want %v end %d", cut, got, end, frames[:n], wantEnd)
		}
		if boundary := cut == wantEnd && cut > 0; (st == Clean) != boundary {
			t.Fatalf("cut=%d: status %v at end %d", cut, st, end)
		}

		w, err := OpenWriter(path, end)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := w.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		base := end
		if base == 0 {
			base = int64(len(Magic))
		}
		want := append(append([]frame(nil), frames[:n]...), frame{base + HeaderLen, string(extra)})
		got, end, st = scanAll(t, path)
		if !sameFrames(got, want) || st != Clean || end != base+HeaderLen+int64(len(extra)) {
			t.Fatalf("cut=%d: after reopen and append: frames %v end %d %v, want %v clean", cut, got, end, st, want)
		}
	}

	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := int64(0); i < int64(len(full)); i++ {
		n := 0 // frames wholly before the one holding byte i
		for n < len(ends) && ends[n] <= i {
			n++
		}
		for v := 0; v < 256; v++ {
			if byte(v) == full[i] {
				continue
			}
			if _, err := f.WriteAt([]byte{byte(v)}, i); err != nil {
				t.Fatal(err)
			}
			got, end, st := scanAll(t, path)
			if !sameFrames(got, frames[:n]) || st == Clean {
				t.Fatalf("byte %d = %#x: frames %v end %d %v, want %v and not clean", i, v, got, end, st, frames[:n])
			}
		}
		if _, err := f.WriteAt(full[i:i+1], i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanStatus pins which damage Scan calls torn and which corrupt.
func TestScanStatus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	writeLog(t, path, []byte("first"), []byte("second"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secondLen := int64(len(Magic) + HeaderLen + len("first"))
	huge := append([]byte(nil), full...)
	huge[secondLen+3] = 0xff // length far above MaxRecord, in the final frame
	flipped := append([]byte(nil), full...)
	flipped[len(Magic)+HeaderLen] ^= 1 // first payload, with a frame after it
	for _, tc := range []struct {
		name string
		data []byte
		end  int64
		st   Status
	}{
		{"clean", full, int64(len(full)), Clean},
		{"empty file", nil, 0, Torn},
		{"short magic", full[:2], 0, Torn},
		{"wrong magic", []byte("BNAVWAL1"), 0, Corrupt},
		{"partial header", full[:len(full)-len("second")-3], secondLen, Torn},
		{"partial payload", full[:len(full)-1], secondLen, Torn},
		{"length above bound", huge, secondLen, Corrupt},
		{"bad frame mid-log", flipped, int64(len(Magic)), Corrupt},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, end, st := scanAll(t, path)
		if end != tc.end || st != tc.st {
			t.Errorf("%s: end %d %v, want %d %v", tc.name, end, st, tc.end, tc.st)
		}
	}
}

// TestScanStopsWhereFnRefuses: an error from fn ends the scan before the
// refused frame, so a caller can truncate a frame it cannot decode.
func TestScanStopsWhereFnRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	writeLog(t, path, []byte("good"), []byte("bad"), []byte("never seen"))
	refuse := errors.New("not a record")
	var seen []string
	end, st, err := Scan(path, func(_ int64, p []byte) error {
		if string(p) == "bad" {
			return refuse
		}
		seen = append(seen, string(p))
		return nil
	})
	if err != refuse || st == Clean {
		t.Fatalf("err %v status %v, want fn's error and not clean", err, st)
	}
	if want := int64(len(Magic) + HeaderLen + len("good")); end != want || len(seen) != 1 {
		t.Fatalf("end %d after %v, want %d after [good]", end, seen, want)
	}
	if _, _, err := Scan(filepath.Join(t.TempDir(), "missing"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("scan of a missing file: %v", err)
	}
}

// TestWriterPoisonedByFailedWrite: once a write fails, the Writer refuses
// every later call with that error — bytes after a partial frame would be
// unreadable — while the frames flushed before it still scan.
func TestWriterPoisonedByFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	w, err := OpenWriter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != Magic {
		t.Fatalf("before any flush the file holds %q (%v), want the magic", data, err)
	}
	if err := w.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // every later write fails
	if err := w.Append([]byte("lost")); err != nil {
		t.Fatalf("buffered append failed early: %v", err)
	}
	first := w.Flush()
	if first == nil || w.Err() != first {
		t.Fatalf("flush to a closed file: %v, Err %v", first, w.Err())
	}
	for name, err := range map[string]error{
		"Append": w.Append([]byte("after")),
		"Flush":  w.Flush(),
		"Sync":   w.Sync(),
		"Close":  w.Close(),
	} {
		if err != first {
			t.Errorf("%s after a failed write: %v, want %v", name, err, first)
		}
	}
	got, _, st := scanAll(t, path)
	if len(got) != 1 || got[0].payload != "durable" || st != Clean {
		t.Fatalf("scan after the failure: %v %v", got, st)
	}
}

// FuzzScan feeds arbitrary files to Scan: it never panics or fails, its
// frames tile the valid prefix from the magic on, it calls the log clean
// exactly when that prefix is the whole file, and the prefix rescans clean
// with the same frames.
func FuzzScan(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.log")
	writeLog(f, path, []byte("hello"), bytes.Repeat([]byte{7}, 100))
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("BNT1"))
	f.Add([]byte("XXXX"))
	f.Add(valid[:len(valid)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, end, st := scanAll(t, p)
		pos := int64(len(Magic))
		for _, fr := range got {
			if fr.off != pos+HeaderLen {
				t.Fatalf("frame at %d, want %d", fr.off, pos+HeaderLen)
			}
			pos = fr.off + int64(len(fr.payload))
		}
		if end == 0 {
			if len(got) != 0 || st == Clean {
				t.Fatalf("no valid magic, yet %d frames and %v", len(got), st)
			}
			return
		}
		if end != pos || end > int64(len(data)) {
			t.Fatalf("end %d, frames end at %d, file is %d bytes", end, pos, len(data))
		}
		if (st == Clean) != (end == int64(len(data))) {
			t.Fatalf("status %v with end %d of %d", st, end, len(data))
		}
		if err := os.WriteFile(p, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		again, end2, st2 := scanAll(t, p)
		if !sameFrames(again, got) || end2 != end || st2 != Clean {
			t.Fatalf("valid prefix rescans as %v end %d %v", again, end2, st2)
		}
	})
}
