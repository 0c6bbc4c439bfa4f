package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bionav/internal/wal"
)

func lazyFixture(t *testing.T) (string, *Dataset) {
	t.Helper()
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

func TestCitationReaderMatchesFullLoad(t *testing.T) {
	dir, ds := lazyFixture(t)
	r, err := OpenCitationReader(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != ds.Corpus.Len() {
		t.Fatalf("indexed %d, corpus has %d", r.Len(), ds.Corpus.Len())
	}
	for i := 0; i < ds.Corpus.Len(); i++ {
		want := ds.Corpus.At(i)
		if !r.Has(want.ID) {
			t.Fatalf("Has(%d) = false", want.ID)
		}
		got, err := r.Get(want.ID)
		if err != nil {
			t.Fatalf("Get(%d): %v", want.ID, err)
		}
		if got.Title != want.Title || got.Year != want.Year ||
			len(got.Concepts) != len(want.Concepts) || len(got.Terms) != len(want.Terms) {
			t.Fatalf("citation %d differs: %+v vs %+v", want.ID, got, want)
		}
	}
}

func TestCitationReaderMissAndCacheHit(t *testing.T) {
	dir, ds := lazyFixture(t)
	r, err := OpenCitationReader(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get(424242); err == nil {
		t.Fatal("missing ID served")
	}
	if r.Has(424242) {
		t.Fatal("Has(missing) = true")
	}
	// Two Gets of the same ID must return the identical cached pointer.
	id := ds.Corpus.At(0).ID
	a, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not serve the second Get")
	}
	// Evict by reading more than the cache holds; the ID must still load.
	for i := 1; i < 8; i++ {
		if _, err := r.Get(ds.Corpus.At(i).ID); err != nil {
			t.Fatal(err)
		}
	}
	c, err := r.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if c.Title != a.Title {
		t.Fatal("reload after eviction differs")
	}
}

func TestCitationReaderZeroCache(t *testing.T) {
	dir, ds := lazyFixture(t)
	r, err := OpenCitationReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id := ds.Corpus.At(3).ID
	a, _ := r.Get(id)
	b, _ := r.Get(id)
	if a == nil || b == nil || a == b {
		t.Fatal("zero cache should decode fresh copies")
	}
}

// flipCitationByte flips a byte beyond the leading varint of the first
// citation record's payload.
func flipCitationByte(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "citations.tbl"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 4+8+6); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, 4+8+6); err != nil {
		t.Fatal(err)
	}
}

// TestCitationReaderOpenDetectsCorruption: the open scan verifies every
// frame, as LoadDataset does over the same file.
func TestCitationReaderOpenDetectsCorruption(t *testing.T) {
	dir, _ := lazyFixture(t)
	flipCitationByte(t, dir)
	if r, err := OpenCitationReader(dir, 4); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("open over a corrupted record: %v, want ErrCorrupt", err)
	}
}

// TestCitationReaderDetectsCorruption: a record corrupted after the open
// fails its own Get; the others stay readable.
func TestCitationReaderDetectsCorruption(t *testing.T) {
	dir, ds := lazyFixture(t)
	r, err := OpenCitationReader(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	flipCitationByte(t, dir)
	if _, err := r.Get(ds.Corpus.At(0).ID); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupted record: %v", err)
	}
	// Other records stay readable.
	if _, err := r.Get(ds.Corpus.At(5).ID); err != nil {
		t.Fatal(err)
	}
}

func TestCitationReaderConcurrent(t *testing.T) {
	dir, ds := lazyFixture(t)
	r, err := OpenCitationReader(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ds.Corpus.At((g*7 + i) % ds.Corpus.Len()).ID
				if _, err := r.Get(id); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCitationReaderDuplicateFramesLastWin pins the upsert semantic: when
// the citations table holds two frames for one ID, the later frame is the
// record served — the contract the ingest append path relies on when it
// supersedes a base citation without rewriting the base table.
func TestCitationReaderDuplicateFramesLastWin(t *testing.T) {
	dir, ds := lazyFixture(t)
	path := filepath.Join(dir, "citations.tbl")
	first := ds.Corpus.At(0)
	updated := *first
	updated.Title = "superseded title, version two"

	end, _, err := wal.Scan(path, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.OpenWriter(path, end)
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	if err := encodeCitation(&enc, &updated); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCitationReader(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != ds.Corpus.Len() {
		t.Fatalf("duplicate frame grew the index: %d vs %d", r.Len(), ds.Corpus.Len())
	}
	got, err := r.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != updated.Title {
		t.Fatalf("Get(%d) served %q, want the later frame %q", first.ID, got.Title, updated.Title)
	}
}

// TestCitationReaderCountsTornTail: a crash artifact at the table's tail
// must end the scan, leave the intact prefix fully servable, and bump
// bionav_store_torn_tails_total — not silently vanish.
func TestCitationReaderCountsTornTail(t *testing.T) {
	dir, ds := lazyFixture(t)
	path := filepath.Join(dir, "citations.tbl")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-payload of the final record.
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	before := storeTornTails.Value()
	r, err := OpenCitationReader(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := storeTornTails.Value(); got != before+1 {
		t.Fatalf("torn-tail counter %d, want %d", got, before+1)
	}
	if r.Len() != ds.Corpus.Len()-1 {
		t.Fatalf("indexed %d citations after torn tail, want %d", r.Len(), ds.Corpus.Len()-1)
	}
	if _, err := r.Get(ds.Corpus.At(0).ID); err != nil {
		t.Fatalf("intact prefix unreadable after torn tail: %v", err)
	}
}

func TestCitationReaderMissingTable(t *testing.T) {
	if _, err := OpenCitationReader(t.TempDir(), 4); err == nil {
		t.Fatal("open succeeded without citations table")
	}
}

func BenchmarkCitationReaderGet(b *testing.B) {
	ds := testDatasetSized(b, 1500, 800)
	dir := b.TempDir()
	if err := ds.Save(dir); err != nil {
		b.Fatal(err)
	}
	r, err := OpenCitationReader(dir, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ids := ds.Corpus.IDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
