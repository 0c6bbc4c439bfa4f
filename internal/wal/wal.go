// Package wal is BioNav's one durable-log format. The base tables and the
// ingest log of a database directory (internal/store) and the segments of
// the session journal (internal/journal) are all logs of this shape:
//
//	magic "BNT1" (4 bytes)
//	repeated frames: [uint32 payload length][uint32 CRC-32C of payload][payload]
//
// Lengths and checksums are little-endian. Writer appends frames; Scan
// reads them back and reports where the valid prefix ends and why. What to
// do about a log that does not end cleanly — count it, truncate it, fail —
// is each caller's recovery policy, not this package's.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Magic opens every log.
const Magic = "BNT1"

// HeaderLen is the size of a frame header: payload length, then checksum.
const HeaderLen = 8

// MaxRecord bounds a payload. No append writes a longer length, so a crash
// cannot leave one: Scan reports it as corruption, never as a torn tail.
const MaxRecord = 256 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the frame checksum of p, CRC-32C.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Status says why a scan stopped.
type Status int

const (
	// Clean: the log ends right after its magic or a whole frame.
	Clean Status = iota
	// Torn: the log ends inside its magic or a frame, or its final frame
	// fails its checksum — what a crash in the middle of an append leaves.
	Torn
	// Corrupt: a wrong magic, a length above MaxRecord, or a frame that
	// fails its checksum with more bytes after it — damage no crash
	// leaves. A scan that fn or a read error stopped reports it too.
	Corrupt
)

func (s Status) String() string {
	switch s {
	case Clean:
		return "clean end"
	case Torn:
		return "torn tail"
	}
	return "corruption"
}

// Scan streams the frames of the log at path through fn, in order, each
// with the offset of its payload in the file. It returns end, the length
// of the valid prefix — the magic and every whole frame that passed its
// checksum and fn — and st, why the scan stopped there; end is 0 when the
// log has no valid magic. A non-nil error from fn stops the scan before
// that frame and is returned as is; any other error is from opening or
// reading the file. The payload slice is reused between calls: fn must
// copy what it keeps.
//
// Scan is one buffered, sequential pass that only reads, so it may run
// while a Writer appends; it stops at the size the file had when opened.
// A length field is checked against that size before anything is
// allocated for it.
func Scan(path string, fn func(off int64, payload []byte) error) (end int64, st Status, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, Corrupt, fmt.Errorf("wal: scan: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, Corrupt, fmt.Errorf("wal: scan: %w", err)
	}
	size := fi.Size()
	if size < int64(len(Magic)) {
		return 0, Torn, nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:len(Magic)]); err != nil {
		return 0, Corrupt, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return 0, Corrupt, nil
	}
	end = int64(len(Magic))
	var buf []byte
	for end < size {
		if size-end < HeaderLen {
			return end, Torn, nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return end, Corrupt, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > MaxRecord {
			return end, Corrupt, nil
		}
		next := end + HeaderLen + int64(n)
		if next > size {
			return end, Torn, nil
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return end, Corrupt, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		if checksum(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if next == size {
				return end, Torn, nil
			}
			return end, Corrupt, nil
		}
		if err := fn(end+HeaderLen, buf); err != nil {
			return end, Corrupt, err
		}
		end = next
	}
	return end, Clean, nil
}

// Writer appends frames to a log. Appends are buffered: Flush hands them to
// the OS, Sync also makes them durable, Close flushes without syncing. The
// first failed write or sync poisons the Writer and every later call
// returns that error, because no reader can use bytes written after a
// partial frame. A Writer is not safe for concurrent use.
type Writer struct {
	f    *os.File
	bw   *bufio.Writer
	size int64 // log length once every appended frame is flushed
	err  error
}

// OpenWriter opens the log at path for appending at end: the valid end a
// Scan of it reported, or 0 for a new log. It truncates the file at end
// first — a torn tail left in place would sit in the middle of the log
// after the next append — and writes the magic when end is before it. A
// missing file is created.
func OpenWriter(path string, end int64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if end < int64(len(Magic)) {
		end = 0
	}
	err = f.Truncate(end)
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err == nil && end == 0 {
		// Unbuffered, so that a process killed before its first flush still
		// leaves a valid empty log rather than one a scan calls torn.
		_, err = f.WriteString(Magic)
		end = int64(len(Magic))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), size: end}, nil
}

// Append buffers one frame holding payload.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds %d", len(payload), MaxRecord)
	}
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], checksum(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return w.fail("append", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return w.fail("append", err)
	}
	w.size += HeaderLen + int64(len(payload))
	return nil
}

// Flush hands every buffered frame to the OS.
func (w *Writer) Flush() error {
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			return w.fail("flush", err)
		}
	}
	return w.err
}

// Sync flushes, then fsyncs the file, so every frame appended so far
// survives a crash.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail("sync", err)
	}
	return nil
}

// Close flushes and closes the file; it does not fsync. It releases the
// descriptor even after an error, and reports that error.
func (w *Writer) Close() error {
	err := w.Flush()
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// Size is the length of the log once every appended frame is flushed.
func (w *Writer) Size() int64 { return w.size }

// Err returns the error that poisoned the Writer, or nil.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(op string, err error) error {
	w.err = fmt.Errorf("wal: %s %s: %w", op, w.f.Name(), err)
	return w.err
}
