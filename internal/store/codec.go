// Package store implements the embedded BioNav database (§VII): a
// directory of append-only binary table files with CRC-framed records,
// crash-truncation recovery, and a varint record codec. The paper keeps the
// MeSH hierarchy and the denormalized citation→concepts association table
// in Oracle; this package plays that role with a pure-Go, stdlib-only
// log-structured store.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a record that fails structural validation or checksum.
var ErrCorrupt = errors.New("store: corrupt record")

// Encoder builds a binary record using varint primitives. The zero value is
// ready to use; Bytes returns the accumulated record.
type Encoder struct {
	buf []byte
}

// Reset clears the encoder for reuse, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded record. The slice aliases the encoder's buffer
// and is invalidated by the next Put or Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutVarint appends a signed (zig-zag) varint.
func (e *Encoder) PutVarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads back a record written by Encoder. All methods return an
// error wrapping ErrCorrupt on truncated or malformed input, so a caller
// can `errors.Is(err, store.ErrCorrupt)`.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over record.
func NewDecoder(record []byte) *Decoder { return &Decoder{buf: record} }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Bytes reads a length-prefixed byte slice. The result aliases the record.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCorrupt, n, d.Remaining())
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// Finish verifies the record was consumed exactly.
func (d *Decoder) Finish() error {
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return nil
}
