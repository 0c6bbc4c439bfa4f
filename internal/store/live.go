package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"bionav/internal/corpus"
	"bionav/internal/faults"
	"bionav/internal/obs"
	"bionav/internal/wal"
)

// tableIngest is the append-only batch log of a live database directory.
// The base tables written by Save stay immutable; every ingested batch is
// one framed record here, replayed through the same Snapshot.Ingest path
// at the next OpenLive — so the in-memory incremental update and the
// durable one cannot drift, and the epoch count (number of applied
// batches) survives restarts.
const tableIngest = "ingestlog"

// Live manages the current snapshot of a growing corpus: an atomic
// pointer readers load without locking, and a serialized ingest path that
// journals each batch to the ingest log (write-ahead, fsynced) before
// publishing the next epoch. Safe for concurrent use.
type Live struct {
	dir string // database directory; "" = memory-only (no persistence)

	mu  sync.Mutex
	log *wal.Writer // guarded by mu; nil when memory-only

	cur atomic.Pointer[Snapshot]
}

// NewLive wraps an in-memory snapshot as a live corpus without
// persistence: ingested batches update the current snapshot but are not
// written anywhere (the demo-server mode).
func NewLive(sn *Snapshot) *Live {
	l := &Live{}
	l.cur.Store(sn)
	return l
}

// OpenLive loads the dataset from dir and replays its ingest log, batch
// by batch, through Snapshot.Ingest — arriving at the same epoch the
// directory last served — then reopens the log for appending at the end of
// its valid prefix, which truncates a torn tail left by a crash
// mid-ingest. One scan does both.
func OpenLive(dir string) (*Live, error) {
	snap, err := LoadDataset(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, tableIngest+tableSuffix)
	end, err := readLog(path, true, func(payload []byte) error {
		batch, derr := decodeIngestBatch(payload)
		if derr != nil {
			return derr
		}
		next, _, derr := snap.Ingest(batch)
		if derr != nil {
			return fmt.Errorf("store: replay ingest log: %w", derr)
		}
		snap = next
		return nil
	})
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenWriter(path, end)
	if err != nil {
		return nil, fmt.Errorf("store: open ingest log: %w", err)
	}
	l := &Live{dir: dir, log: log}
	l.cur.Store(snap)
	return l, nil
}

// Current returns the serving snapshot. The result is immutable; callers
// pin an epoch simply by keeping the pointer.
func (l *Live) Current() *Snapshot { return l.cur.Load() }

// Ingest applies one batch: the batch is framed and fsynced to the ingest
// log first (when persistent), then the next snapshot is built
// copy-on-write and published. Concurrent Ingest calls serialize;
// concurrent readers are never blocked and see either the old or the new
// epoch, atomically. On error nothing is published — though once the log
// append succeeded, a later failure leaves the batch durable, so a retry
// after reopen may find it already applied (at-least-once).
//
// The faults.SiteStoreIngest failpoint fires before any work, so an
// injected failure exercises the caller's error path with no state
// touched.
func (l *Live) Ingest(batch []corpus.Citation) (sn *Snapshot, err error) {
	defer obs.Time(ingestSeconds)()
	defer func() {
		if err != nil {
			ingestBatches.With("error").Inc()
		} else {
			ingestBatches.With("ok").Inc()
		}
	}()
	if err := faults.Inject(faults.SiteStoreIngest); err != nil {
		return nil, fmt.Errorf("store: ingest: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	next, _, err := l.cur.Load().Ingest(batch)
	if err != nil {
		return nil, err
	}
	if l.log != nil {
		payload, err := encodeIngestBatch(batch)
		if err != nil {
			return nil, err
		}
		if err := l.log.Append(payload); err != nil {
			return nil, err
		}
		if err := l.log.Sync(); err != nil {
			return nil, err
		}
	}
	l.cur.Store(next)
	ingestCitations.Add(uint64(len(batch)))
	return next, nil
}

// Close closes the ingest log (a no-op for memory-only corpora). The Live
// must not Ingest afterwards; Current stays valid.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
}
