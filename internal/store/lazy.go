package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"bionav/internal/corpus"
	"bionav/internal/wal"
)

// CitationReader serves point lookups of citations straight from the
// database files, without materializing the corpus in memory — the serving
// role the paper's Oracle database plays for SHOWRESULTS/ESummary against
// 18M-citation MEDLINE. Opening scans the citation table (and, when
// present, the ingest log) once, verifying every frame as LoadDataset
// does, to build an in-memory (ID → file location) index; Get then costs
// one ReadAt plus decode, front-ended by a small LRU cache.
//
// Frames index in storage order — base citations table first, then the
// ingest log's batches — and a later frame for an already-seen citation
// ID replaces the earlier one's location: **duplicate frames last-win**.
// That is the documented upsert semantic the ingest append path relies
// on: re-ingesting a citation ID supersedes the stored record without
// rewriting the base table, and a reader opened afterwards serves the
// newest version. Torn tails (crash artifacts mid-append) end the scan
// and are counted by bionav_store_torn_tails_total. The scans only read:
// a reader may open while Live appends to the ingest log.
//
// CitationReader is safe for concurrent use. The location index is fixed
// at open: batches ingested later are served only by a reader reopened
// after them.
type CitationReader struct {
	f       *os.File
	ing     *os.File // ingest log; nil when the directory has none
	offsets map[corpus.CitationID]recordLoc

	mu    sync.Mutex
	cache *lru
}

type recordLoc struct {
	offset int64
	length uint32
	crc    uint32
	ing    bool // location is in the ingest log, not the citations table
}

// OpenCitationReader indexes dir's citation table plus its ingest log.
// cacheSize bounds the decoded-citation LRU (0 disables caching). A
// corrupt frame in either file fails the open with ErrCorrupt.
func OpenCitationReader(dir string, cacheSize int) (*CitationReader, error) {
	path := filepath.Join(dir, tableCitations+tableSuffix)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open citations: %w", err)
	}
	r := &CitationReader{
		f:       f,
		offsets: make(map[corpus.CitationID]recordLoc),
		cache:   newLRU(cacheSize),
	}
	if err := r.buildIndex(dir); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// buildIndex records each citation's location and checksum, decoding only
// the leading citation-ID varint of each base record. Get re-verifies the
// checksum against the bytes it reads.
func (r *CitationReader) buildIndex(dir string) error {
	_, err := readLog(r.f.Name(), false, func(off int64, payload []byte) error {
		id, vn := binary.Varint(payload)
		if vn <= 0 {
			return fmt.Errorf("%w: citations table: record at %d has no ID", ErrCorrupt, off)
		}
		// Duplicate IDs last-win (upsert): a later frame supersedes.
		r.offsets[corpus.CitationID(id)] = recordLoc{offset: off, length: uint32(len(payload)), crc: wal.Checksum(payload)}
		return nil
	})
	if err != nil {
		return err
	}
	ing, err := os.Open(filepath.Join(dir, tableIngest+tableSuffix))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open ingest log: %w", err)
	}
	r.ing = ing
	_, err = readLog(ing.Name(), true, r.indexBatchFrame)
	return err
}

// indexBatchFrame overlays one ingest-log batch onto the offset index, so
// point lookups serve the ingested (and upserted) records. A batch payload
// is a citation count followed by length-prefixed sub-records; payloadOff
// is the payload's offset in the ingest log file. Per-citation checksums
// are computed here and re-verified on Get like base records.
func (r *CitationReader) indexBatchFrame(payloadOff int64, payload []byte) error {
	pos := 0
	cnt, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("%w: ingest log: batch frame has no count", ErrCorrupt)
	}
	pos += n
	for i := uint64(0); i < cnt; i++ {
		slen, n := binary.Uvarint(payload[pos:])
		if n <= 0 || uint64(len(payload)-pos-n) < slen {
			return fmt.Errorf("%w: ingest log: batch frame truncated", ErrCorrupt)
		}
		pos += n
		rec := payload[pos : pos+int(slen)]
		id, vn := binary.Varint(rec)
		if vn <= 0 {
			return fmt.Errorf("%w: ingest log: batch citation has no ID", ErrCorrupt)
		}
		r.offsets[corpus.CitationID(id)] = recordLoc{
			offset: payloadOff + int64(pos),
			length: uint32(slen),
			crc:    wal.Checksum(rec),
			ing:    true,
		}
		pos += int(slen)
	}
	return nil
}

// Len reports the number of indexed citations.
func (r *CitationReader) Len() int { return len(r.offsets) }

// Has reports whether the citation exists without reading it.
func (r *CitationReader) Has(id corpus.CitationID) bool {
	_, ok := r.offsets[id]
	return ok
}

// Get reads, verifies, and decodes one citation. The result is shared with
// the cache and must not be modified.
func (r *CitationReader) Get(id corpus.CitationID) (*corpus.Citation, error) {
	loc, ok := r.offsets[id]
	if !ok {
		return nil, fmt.Errorf("store: citation %d not found", id)
	}
	r.mu.Lock()
	if c, hit := r.cache.get(id); hit {
		r.mu.Unlock()
		citationCacheHits.Inc()
		return c, nil
	}
	r.mu.Unlock()
	citationCacheMisses.Inc()

	src := r.f
	if loc.ing {
		src = r.ing
	}
	buf := make([]byte, loc.length)
	if _, err := src.ReadAt(buf, loc.offset); err != nil {
		return nil, fmt.Errorf("store: read citation %d: %w", id, err)
	}
	if got := wal.Checksum(buf); got != loc.crc {
		return nil, fmt.Errorf("%w: citation %d checksum %08x != %08x", ErrCorrupt, id, got, loc.crc)
	}
	c, err := decodeCitation(buf)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache.put(id, &c)
	r.mu.Unlock()
	return &c, nil
}

// Close releases the file descriptors.
func (r *CitationReader) Close() error {
	err := r.f.Close()
	if r.ing != nil {
		if cerr := r.ing.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// lru is a minimal LRU cache of decoded citations. Not safe for concurrent
// use; the reader serializes access.
type lru struct {
	max   int
	order *list.List // front = most recent; values are *lruEntry
	items map[corpus.CitationID]*list.Element
}

type lruEntry struct {
	id corpus.CitationID
	c  *corpus.Citation
}

func newLRU(max int) *lru {
	return &lru{max: max, order: list.New(), items: make(map[corpus.CitationID]*list.Element)}
}

func (l *lru) get(id corpus.CitationID) (*corpus.Citation, bool) {
	el, ok := l.items[id]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).c, true
}

func (l *lru) put(id corpus.CitationID, c *corpus.Citation) {
	if l.max <= 0 {
		return
	}
	if el, ok := l.items[id]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry).c = c
		return
	}
	l.items[id] = l.order.PushFront(&lruEntry{id: id, c: c})
	for l.order.Len() > l.max {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry).id)
	}
}
