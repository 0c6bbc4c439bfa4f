package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"bionav/internal/wal"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.PutUvarint(0)
	e.PutUvarint(1 << 60)
	e.PutVarint(-42)
	e.PutVarint(1 << 50)
	e.PutString("hello, 世界")
	e.PutBytes([]byte{0, 1, 2, 255})

	d := NewDecoder(e.Bytes())
	if v, err := d.Uvarint(); err != nil || v != 0 {
		t.Fatalf("uvarint: %v %v", v, err)
	}
	if v, err := d.Uvarint(); err != nil || v != 1<<60 {
		t.Fatalf("uvarint: %v %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -42 {
		t.Fatalf("varint: %v %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != 1<<50 {
		t.Fatalf("varint: %v %v", v, err)
	}
	if v, err := d.String(); err != nil || v != "hello, 世界" {
		t.Fatalf("string: %q %v", v, err)
	}
	if v, err := d.Bytes(); err != nil || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Fatalf("bytes: %v %v", v, err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(u uint64, i int64, s string, b []byte) bool {
		var e Encoder
		e.PutUvarint(u)
		e.PutVarint(i)
		e.PutString(s)
		e.PutBytes(b)
		d := NewDecoder(e.Bytes())
		gu, err1 := d.Uvarint()
		gi, err2 := d.Varint()
		gs, err3 := d.String()
		gb, err4 := d.Bytes()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		if d.Finish() != nil {
			return false
		}
		return gu == u && gi == i && gs == s && bytes.Equal(gb, b)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecoderErrorsOnTruncation(t *testing.T) {
	var e Encoder
	e.PutString("abcdef")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		if _, err := d.String(); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestDecoderFinishDetectsTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if err := d.Finish(); err == nil {
		t.Fatal("Finish ignored trailing bytes")
	}
}

// createLog writes a store log holding payloads, as a table Writer does.
func createLog(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	w, err := wal.OpenWriter(path, 0)
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

// readTable reads a base table through the store's recovery policy.
func readTable(path string, fn func(payload []byte) error) error {
	_, err := readLog(path, false, fn)
	return err
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tbl")
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload")}
	createLog(t, path, want...)
	n := 0
	if _, st, err := wal.Scan(path, func(int64, []byte) error { n++; return nil }); err != nil || st != wal.Clean || n != 3 {
		t.Fatalf("Scan = %d records, %v, %v", n, st, err)
	}

	var got [][]byte
	err := readTable(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestLogTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tbl")
	var recs [][]byte
	for i := 0; i < 5; i++ {
		recs = append(recs, []byte("record-payload-0123456789"))
	}
	createLog(t, path, recs...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate at every possible byte boundary inside the last record. As
	// the ingest log, the reader must always recover the first four
	// records, never error, and count each torn tail. As a base table,
	// which Save writes once, the torn tail is ErrCorrupt and not counted.
	recSize := (len(full) - 4) / 5
	for cut := len(full) - recSize + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		before := storeTornTails.Value()
		if _, err := readLog(path, true, func([]byte) error { n++; return nil }); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n != 4 {
			t.Fatalf("cut=%d: recovered %d records, want 4", cut, n)
		}
		if got := storeTornTails.Value(); got != before+1 {
			t.Fatalf("cut=%d: torn-tail counter %d, want %d", cut, got, before+1)
		}
		if err := readTable(path, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: base table read err = %v, want ErrCorrupt", cut, err)
		}
		if got := storeTornTails.Value(); got != before+1 {
			t.Fatalf("cut=%d: torn base table counted as a torn tail", cut)
		}
	}
}

func TestLogMidFileCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tbl")
	createLog(t, path, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32), bytes.Repeat([]byte{3}, 32))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (after magic + header).
	flipped := append([]byte(nil), data...)
	flipped[4+8+3] ^= 0xff
	// A length above the record bound is corruption even in the final
	// frame: a crash never writes one.
	huge := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(huge[len(data)-32-8:], wal.MaxRecord+1)
	for _, bad := range [][]byte{flipped, huge} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err = readTable(path, func([]byte) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	}
}

func TestLogBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tbl")
	// A wrong magic, and one a table never outgrew: both are corrupt.
	for _, data := range []string{"XXXXjunk", "BN", ""} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := readTable(path, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: err = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestDBTables(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha"} {
		tw, err := w.CreateTable(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Append([]byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CreateTable("alpha"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := w.CreateTable("Bad Name"); err == nil {
		t.Fatal("invalid table name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !db.HasTable("alpha") || !db.HasTable("zeta") || db.HasTable("nope") {
		t.Fatal("HasTable wrong")
	}
	var payloads []string
	err = db.ForEach("alpha", func(p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil || len(payloads) != 1 || payloads[0] != "alpha" {
		t.Fatalf("ForEach = %v, %v", payloads, err)
	}
	if err := db.ForEach("nope", func([]byte) error { return nil }); err == nil {
		t.Fatal("ForEach on missing table succeeded")
	}
}

func TestNewWriterCleansStaleTables(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "old.tbl")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale table not removed")
	}
}
