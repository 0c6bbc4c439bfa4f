package store

import (
	"fmt"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// conceptsStrictlyAscending reports whether a concept annotation list is
// strictly ascending and all-positive — the invariant the delta codec
// requires on both sides. Root (0) and negative IDs are excluded: a valid
// first delta from prev=0 is therefore always >= 1.
func conceptsStrictlyAscending(concepts []hierarchy.ConceptID) bool {
	prev := hierarchy.ConceptID(0)
	for _, id := range concepts {
		if id <= prev {
			return false
		}
		prev = id
	}
	return true
}

// encodeCitation serializes one citation record: ID, title, year, authors,
// terms, then the concept annotations delta-encoded. The concepts must be
// strictly ascending: the deltas are written as uvarints, so an unsorted or
// duplicated list would silently wrap to a huge positive delta and decode
// into garbage. Encoding validates and refuses instead.
func encodeCitation(enc *Encoder, c *corpus.Citation) error {
	if !conceptsStrictlyAscending(c.Concepts) {
		return fmt.Errorf("%w: citation %d: concepts not strictly ascending", ErrCorrupt, c.ID)
	}
	enc.PutVarint(int64(c.ID))
	enc.PutString(c.Title)
	enc.PutUvarint(uint64(c.Year))
	enc.PutUvarint(uint64(len(c.Authors)))
	for _, a := range c.Authors {
		enc.PutString(a)
	}
	enc.PutUvarint(uint64(len(c.Terms)))
	for _, t := range c.Terms {
		enc.PutString(t)
	}
	enc.PutUvarint(uint64(len(c.Concepts)))
	prev := hierarchy.ConceptID(0)
	for _, id := range c.Concepts {
		enc.PutUvarint(uint64(id - prev))
		prev = id
	}
	return nil
}

// decodeCitation parses a record written by encodeCitation.
func decodeCitation(payload []byte) (corpus.Citation, error) {
	d := NewDecoder(payload)
	var c corpus.Citation
	id, err := d.Varint()
	if err != nil {
		return c, err
	}
	c.ID = corpus.CitationID(id)
	if c.Title, err = d.String(); err != nil {
		return c, err
	}
	year, err := d.Uvarint()
	if err != nil {
		return c, err
	}
	c.Year = int(year)
	na, err := d.Uvarint()
	if err != nil {
		return c, err
	}
	for j := uint64(0); j < na; j++ {
		a, err := d.String()
		if err != nil {
			return c, err
		}
		c.Authors = append(c.Authors, a)
	}
	nt, err := d.Uvarint()
	if err != nil {
		return c, err
	}
	for j := uint64(0); j < nt; j++ {
		t, err := d.String()
		if err != nil {
			return c, err
		}
		c.Terms = append(c.Terms, t)
	}
	nc, err := d.Uvarint()
	if err != nil {
		return c, err
	}
	prev := hierarchy.ConceptID(0)
	for j := uint64(0); j < nc; j++ {
		delta, err := d.Uvarint()
		if err != nil {
			return c, err
		}
		// A zero delta is a duplicate concept, an overflowing one goes
		// negative. Either way the record never came from a valid encode.
		next := prev + hierarchy.ConceptID(delta)
		if next <= prev {
			return c, fmt.Errorf("%w: citation %d: concepts not strictly ascending", ErrCorrupt, c.ID)
		}
		prev = next
		c.Concepts = append(c.Concepts, prev)
	}
	if err := d.Finish(); err != nil {
		return c, err
	}
	return c, nil
}
