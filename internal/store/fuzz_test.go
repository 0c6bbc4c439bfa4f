package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// FuzzDecoder throws arbitrary bytes at the record codec: every accessor
// must either succeed or fail with ErrCorrupt — never panic or loop.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.PutUvarint(7)
	e.PutVarint(-3)
	e.PutString("seed")
	e.PutBytes([]byte{1, 2})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for {
			switch len(data) % 4 {
			case 0:
				if _, err := d.Uvarint(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 1:
				if _, err := d.Varint(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 2:
				if _, err := d.String(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 3:
				if _, err := d.Bytes(); err != nil {
					requireCorrupt(t, err)
					return
				}
			}
			if d.Remaining() == 0 {
				return
			}
		}
	})
}

func requireCorrupt(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// FuzzCitationCodec throws arbitrary bytes at the citation record codec.
// Any successful decode must satisfy the strict-ascent concept invariant
// and survive an encode/decode round trip unchanged; any failure must wrap
// ErrCorrupt. The seeds cover the asymmetry this guards against: records
// hand-encoded with unsorted, duplicate, and empty concept lists, which
// the encoder refuses and the decoder must therefore reject too.
func FuzzCitationCodec(f *testing.F) {
	valid := corpus.Citation{
		ID: 12345, Title: "seed citation", Authors: []string{"Ada L", "Grace H"},
		Year: 2008, Terms: []string{"protein", "p53"},
		Concepts: []hierarchy.ConceptID{3, 7, 8, 40},
	}
	var enc Encoder
	if err := encodeCitation(&enc, &valid); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), enc.Bytes()...))

	// rawConcepts encodes a citation header followed by the given concept
	// deltas verbatim — bypassing encodeCitation's validation, the way a
	// pre-fix writer or corrupted disk could.
	rawConcepts := func(deltas ...uint64) []byte {
		var e Encoder
		e.PutVarint(99)
		e.PutString("bad concepts")
		e.PutUvarint(2008)
		e.PutUvarint(0) // authors
		e.PutUvarint(0) // terms
		e.PutUvarint(uint64(len(deltas)))
		for _, d := range deltas {
			e.PutUvarint(d)
		}
		return append([]byte(nil), e.Bytes()...)
	}
	f.Add(rawConcepts())                    // empty concepts: valid
	f.Add(rawConcepts(5, 0))                // duplicate (zero delta)
	f.Add(rawConcepts(0))                   // non-positive first concept
	f.Add(rawConcepts(3, 1<<63))            // overflow wraps descending
	f.Add(enc.Bytes()[:len(enc.Bytes())-2]) // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCitation(data)
		if err != nil {
			requireCorrupt(t, err)
			return
		}
		if !conceptsStrictlyAscending(c.Concepts) {
			t.Fatalf("decode accepted non-ascending concepts %v", c.Concepts)
		}
		var re Encoder
		if err := encodeCitation(&re, &c); err != nil {
			t.Fatalf("re-encode of a decoded citation failed: %v", err)
		}
		back, err := decodeCitation(re.Bytes())
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if back.ID != c.ID || back.Title != c.Title || back.Year != c.Year ||
			len(back.Authors) != len(c.Authors) || len(back.Terms) != len(c.Terms) ||
			len(back.Concepts) != len(c.Concepts) {
			t.Fatalf("round trip changed the citation: %+v vs %+v", back, c)
		}
		for i := range c.Concepts {
			if back.Concepts[i] != c.Concepts[i] {
				t.Fatalf("round trip changed concept %d", i)
			}
		}
	})
}

// FuzzIngestBatch throws arbitrary bytes at the ingest log's one batch
// decoder, the parser OpenLive replays every frame through. Any input must
// either fail with ErrCorrupt or decode to citations whose re-encoded batch
// decodes to the same citations.
func FuzzIngestBatch(f *testing.F) {
	seed, err := hex.DecodeString(pinnedBatchHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])                      // last citation truncated
	f.Add(seed[:1])                                // a count of 2, no citations
	f.Add([]byte{0})                               // a zero count
	f.Add(append(append([]byte(nil), seed...), 0)) // a trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := decodeIngestBatch(data)
		if err != nil {
			requireCorrupt(t, err)
			return
		}
		payload, err := encodeIngestBatch(batch)
		if err != nil {
			t.Fatalf("re-encode of a decoded batch failed: %v", err)
		}
		back, err := decodeIngestBatch(payload)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(back, batch) {
			t.Fatalf("round trip changed the batch: %+v vs %+v", back, batch)
		}
	})
}

// FuzzReadLog feeds arbitrary files to the table-log reader: it must never
// panic, and any error must wrap ErrCorrupt (a torn base table is one).
func FuzzReadLog(f *testing.F) {
	// Seed with a valid two-record log.
	path := filepath.Join(f.TempDir(), "seed.tbl")
	createLog(f, path, []byte("hello"), bytes.Repeat([]byte{7}, 100))
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("BNT1"))
	f.Add([]byte("XXXX"))
	f.Add(valid[:len(valid)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.tbl")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := readTable(p, func([]byte) error { return nil }); err != nil {
			requireCorrupt(t, err)
		}
	})
}
