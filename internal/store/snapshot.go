package store

import (
	"fmt"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
)

// Snapshot is one immutable version of the dataset, stamped with a
// monotonically increasing epoch. The dataset is everything BioNav's
// on-line subsystem needs: the concept hierarchy with global counts, the
// citation corpus with its denormalized concept associations, and the
// prebuilt keyword index — the off-line pre-processing output of §VII.
// Epoch 0 is the dataset as loaded (or built); every applied ingest batch
// produces the next epoch. Snapshots
// are copy-on-write: Ingest shares the hierarchy and every untouched
// postings list with its input, so holding an old snapshot (a pinned
// navigation session) costs only the header structures that actually
// changed. A Snapshot is safe for concurrent readers and never mutated.
type Snapshot struct {
	Epoch  uint64
	Tree   *hierarchy.Tree
	Corpus *corpus.Corpus
	Index  *index.Index
}

// IngestStats summarizes one applied batch.
type IngestStats struct {
	Fresh   int // citations new to the corpus
	Upserts int // citations that replaced an existing ID (last wins)
}

// Ingest returns a new snapshot with batch applied — the incremental
// alternative to rebuilding: the corpus is upserted copy-on-write with
// per-concept count deltas (corpus.Apply), and the inverted index gets
// incremental postings updates (index.Apply) touching only the terms of
// the batch. The receiver is unchanged and stays fully usable; sessions
// pinned to it keep navigating exactly the data they started on.
//
// Every batch citation's concept list must be strictly ascending — the
// invariant the citation codec enforces on disk — and annotate only known
// concepts. A violation rejects the whole batch; no partial application.
func (sn *Snapshot) Ingest(batch []corpus.Citation) (*Snapshot, IngestStats, error) {
	var stats IngestStats
	if len(batch) == 0 {
		return nil, stats, fmt.Errorf("store: ingest: empty batch")
	}
	for i := range batch {
		if !conceptsStrictlyAscending(batch[i].Concepts) {
			return nil, stats, fmt.Errorf("%w: citation %d: concepts not strictly ascending", ErrCorrupt, batch[i].ID)
		}
	}
	// Index deltas carry each document's previously indexed terms so
	// upserts retract stale postings. Within one batch later entries see
	// earlier ones (last wins), so track the running term state.
	deltas := make([]index.Delta, 0, len(batch))
	pending := make(map[corpus.CitationID]int) // batch ID → deltas slot
	for i := range batch {
		c := &batch[i]
		if slot, ok := pending[c.ID]; ok {
			deltas[slot].New = c.Terms
			stats.Upserts++
			continue
		}
		d := index.Delta{ID: c.ID, New: c.Terms}
		if old, ok := sn.Corpus.Get(c.ID); ok {
			d.Old = old.Terms
			if d.Old == nil {
				d.Old = []string{} // non-nil: an upsert, not a fresh doc
			}
			stats.Upserts++
		} else {
			stats.Fresh++
		}
		pending[c.ID] = len(deltas)
		deltas = append(deltas, d)
	}
	corp, err := sn.Corpus.Apply(batch)
	if err != nil {
		return nil, stats, fmt.Errorf("store: ingest: %w", err)
	}
	return &Snapshot{
		Epoch:  sn.Epoch + 1,
		Tree:   sn.Tree,
		Corpus: corp,
		Index:  sn.Index.Apply(deltas),
	}, stats, nil
}

// The ingest log frames one record per batch: a citation count followed by
// each citation as a length-prefixed sub-record (the same codec as the
// citations table), so readers can locate individual citations inside a
// frame without decoding their predecessors.

func encodeIngestBatch(batch []corpus.Citation) ([]byte, error) {
	var enc, sub Encoder
	enc.PutUvarint(uint64(len(batch)))
	for i := range batch {
		sub.Reset()
		if err := encodeCitation(&sub, &batch[i]); err != nil {
			return nil, err
		}
		enc.PutBytes(sub.Bytes())
	}
	return append([]byte(nil), enc.Bytes()...), nil
}

func decodeIngestBatch(payload []byte) ([]corpus.Citation, error) {
	d := NewDecoder(payload)
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: ingest batch claims %d citations in %d bytes", ErrCorrupt, n, d.Remaining())
	}
	batch := make([]corpus.Citation, 0, n)
	for i := uint64(0); i < n; i++ {
		rec, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		c, err := decodeCitation(rec)
		if err != nil {
			return nil, err
		}
		batch = append(batch, c)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return batch, nil
}
