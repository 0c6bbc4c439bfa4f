package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/faults"
	"bionav/internal/hierarchy"
)

// ingestCitation builds a batch citation annotating the given (ascending)
// concepts, with one distinctive search term.
func ingestCitation(id int64, term string, concepts ...int) corpus.Citation {
	ids := make([]hierarchy.ConceptID, len(concepts))
	for i, c := range concepts {
		ids[i] = hierarchy.ConceptID(c)
	}
	return corpus.Citation{
		ID:       corpus.CitationID(id),
		Title:    fmt.Sprintf("ingested %d", id),
		Authors:  []string{"Doe J"},
		Year:     2009,
		Terms:    []string{term, "ingested"},
		Concepts: ids,
	}
}

func TestSnapshotIngestFreshCitation(t *testing.T) {
	base := testDataset(t)
	if base.Epoch != 0 {
		t.Fatalf("base epoch = %d, want 0", base.Epoch)
	}
	baseLen := base.Corpus.Len()

	next, stats, err := base.Ingest([]corpus.Citation{ingestCitation(900001, "zebrafish", 1, 2, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 1 || stats.Fresh != 1 || stats.Upserts != 0 {
		t.Fatalf("epoch %d, stats %+v", next.Epoch, stats)
	}
	if next.Corpus.Len() != baseLen+1 {
		t.Fatalf("corpus len %d, want %d", next.Corpus.Len(), baseLen+1)
	}
	if got := next.Index.Search("zebrafish"); len(got) != 1 || got[0] != 900001 {
		t.Fatalf("new index Search(zebrafish) = %v", got)
	}
	if next.Index.Docs() != base.Index.Docs()+1 {
		t.Fatalf("docs %d, want %d", next.Index.Docs(), base.Index.Docs()+1)
	}

	// The receiver is copy-on-write: the old epoch must be untouched.
	if base.Corpus.Len() != baseLen {
		t.Fatal("ingest mutated the receiver's corpus")
	}
	if got := base.Index.Search("zebrafish"); len(got) != 0 {
		t.Fatalf("ingest leaked postings into the receiver's index: %v", got)
	}
	if _, ok := base.Corpus.Get(900001); ok {
		t.Fatal("ingest leaked the citation into the receiver's corpus")
	}
}

func TestSnapshotIngestUpsertRetractsStalePostings(t *testing.T) {
	base := testDataset(t)
	s1, _, err := base.Ingest([]corpus.Citation{ingestCitation(900001, "axolotl", 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	s2, stats, err := s1.Ingest([]corpus.Citation{ingestCitation(900001, "tardigrade", 3, 4, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Upserts != 1 || stats.Fresh != 0 {
		t.Fatalf("stats %+v, want one upsert", stats)
	}
	if s2.Corpus.Len() != s1.Corpus.Len() {
		t.Fatal("upsert grew the corpus")
	}
	if got := s2.Index.Search("axolotl"); len(got) != 0 {
		t.Fatalf("stale posting survived the upsert: %v", got)
	}
	if got := s2.Index.Search("tardigrade"); len(got) != 1 || got[0] != 900001 {
		t.Fatalf("Search(tardigrade) = %v", got)
	}
	if s2.Index.Docs() != s1.Index.Docs() {
		t.Fatalf("upsert changed doc count %d -> %d", s1.Index.Docs(), s2.Index.Docs())
	}
	c, ok := s2.Corpus.Get(900001)
	if !ok || c.Title != "ingested 900001" || len(c.Concepts) != 3 {
		t.Fatalf("upserted citation = %+v, %v", c, ok)
	}
	// Count deltas never decrement: the clamp invariant cnt(c) >= |res(c)|
	// must hold for the newly annotated concept.
	if s2.Corpus.GlobalCount(hierarchy.ConceptID(6)) < s1.Corpus.GlobalCount(hierarchy.ConceptID(6))+1 {
		t.Fatal("upsert did not count the newly added annotation")
	}
}

func TestSnapshotIngestWithinBatchLastWins(t *testing.T) {
	base := testDataset(t)
	next, stats, err := base.Ingest([]corpus.Citation{
		ingestCitation(900007, "firstversion", 1),
		ingestCitation(900007, "secondversion", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fresh != 1 || stats.Upserts != 1 {
		t.Fatalf("stats %+v, want 1 fresh + 1 within-batch upsert", stats)
	}
	if got := next.Index.Search("firstversion"); len(got) != 0 {
		t.Fatalf("earlier duplicate's postings survived: %v", got)
	}
	if got := next.Index.Search("secondversion"); len(got) != 1 || got[0] != 900007 {
		t.Fatalf("Search(secondversion) = %v", got)
	}
	c, _ := next.Corpus.Get(900007)
	if len(c.Concepts) != 1 || c.Concepts[0] != 2 {
		t.Fatalf("corpus kept the wrong duplicate: %+v", c)
	}
}

func TestSnapshotIngestRejectsBadBatches(t *testing.T) {
	base := testDataset(t)
	if _, _, err := base.Ingest(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// Unsorted concepts violate the codec invariant; the whole batch is
	// rejected with ErrCorrupt, even when another entry is valid.
	bad := ingestCitation(900002, "ok", 0)
	bad.Concepts = []hierarchy.ConceptID{5, 3}
	_, _, err := base.Ingest([]corpus.Citation{ingestCitation(900003, "fine", 1), bad})
	requireCorrupt(t, err)
	// An annotation outside the hierarchy is rejected by corpus.Apply.
	if _, _, err := base.Ingest([]corpus.Citation{ingestCitation(900004, "ghost", base.Tree.Len()+40)}); err == nil {
		t.Fatal("unknown concept accepted")
	}
	if _, ok := base.Corpus.Get(900003); ok {
		t.Fatal("rejected batch partially applied")
	}
}

func TestIngestBatchCodecRoundTrip(t *testing.T) {
	batch := []corpus.Citation{
		ingestCitation(900010, "alpha", 1, 4),
		ingestCitation(900011, "beta", 2),
	}
	payload, err := encodeIngestBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeIngestBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d citations, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i].ID != batch[i].ID || got[i].Title != batch[i].Title || len(got[i].Concepts) != len(batch[i].Concepts) {
			t.Fatalf("citation %d differs: %+v vs %+v", i, got[i], batch[i])
		}
	}
	// Truncations and bit flips must surface as ErrCorrupt, not panics.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeIngestBatch(payload[:cut]); err != nil {
			requireCorrupt(t, err)
		}
	}
}

func TestLiveIngestPersistsAndReplays(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest([]corpus.Citation{ingestCitation(900020, "pangolin", 1, 2)}); err != nil {
		t.Fatal(err)
	}
	sn, err := live.Ingest([]corpus.Citation{
		ingestCitation(900021, "quokka", 3),
		ingestCitation(900020, "pangolinv2", 1, 2, 4), // upsert across batches
	})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 2 {
		t.Fatalf("epoch %d after two batches, want 2", sn.Epoch)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the ingest log replays through the same Snapshot.Ingest path,
	// so the epoch and every incremental update are durable.
	re, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cur := re.Current()
	if cur.Epoch != 2 {
		t.Fatalf("replayed epoch %d, want 2", cur.Epoch)
	}
	if got := cur.Index.Search("pangolin"); len(got) != 0 {
		t.Fatalf("stale postings survived the replayed upsert: %v", got)
	}
	if got := cur.Index.Search("pangolinv2"); len(got) != 1 || got[0] != 900020 {
		t.Fatalf("Search(pangolinv2) = %v", got)
	}
	if got := cur.Index.Search("quokka"); len(got) != 1 || got[0] != 900021 {
		t.Fatalf("Search(quokka) = %v", got)
	}

	// A CitationReader opened over the directory serves the ingested
	// citations, base/ingest-log duplicates resolving last-wins (upsert).
	r, err := OpenCitationReader(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != ds.Corpus.Len()+2 {
		t.Fatalf("reader indexed %d citations, want %d", r.Len(), ds.Corpus.Len()+2)
	}
	c, err := r.Get(900020)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Concepts) != 3 || c.Terms[0] != "pangolinv2" {
		t.Fatalf("reader served a stale version: %+v", c)
	}

	// Appending after reopen continues the epoch sequence.
	sn, err = re.Ingest([]corpus.Citation{ingestCitation(900022, "kakapo", 5)})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 3 {
		t.Fatalf("epoch %d after reopen+ingest, want 3", sn.Epoch)
	}
}

func TestOpenLiveTruncatesTornIngestTail(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest([]corpus.Citation{ingestCitation(900030, "okapi", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ingest([]corpus.Citation{ingestCitation(900031, "numbat", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final batch mid-frame, as a crash mid-append would.
	path := filepath.Join(dir, tableIngest+tableSuffix)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	before := storeTornTails.Value()
	re, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storeTornTails.Value(); got != before+1 {
		t.Fatalf("torn-tail counter %d, want %d", got, before+1)
	}
	cur := re.Current()
	if cur.Epoch != 1 {
		t.Fatalf("epoch %d after torn tail, want 1 (the intact batch)", cur.Epoch)
	}
	if got := cur.Index.Search("numbat"); len(got) != 0 {
		t.Fatalf("torn batch partially applied: %v", got)
	}
	// The tail was truncated, so appending resumes on a clean frame edge.
	sn, err := re.Ingest([]corpus.Citation{ingestCitation(900032, "dugong", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 2 {
		t.Fatalf("epoch %d after post-truncation ingest, want 2", sn.Epoch)
	}
}

// TestOpenLiveIngestLogEnds pins the ingest log's recovery policy beyond
// torn tails: a log shorter than its magic — a crash right after creating
// it — holds no batches and is recreated, and a corrupt frame mid-log fails
// the open with ErrCorrupt rather than serving a partial history.
func TestOpenLiveIngestLogEnds(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tableIngest+tableSuffix)
	if err := os.WriteFile(path, []byte("BN"), 0o644); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, term := range []string{"wombat", "echidna"} {
		if _, err := live.Ingest([]corpus.Citation{ingestCitation(900050+int64(i), term, i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Current().Epoch; got != 2 {
		t.Fatalf("epoch %d over a recreated log, want 2", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4+8+2] ^= 0xff // the first batch's payload; the second follows it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLive(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLive over a corrupt batch: %v, want ErrCorrupt", err)
	}
}

// TestFaultIngest arms the store/ingest failpoint: Live.Ingest must fail
// cleanly — no snapshot published, no epoch bump, no log growth — and
// recover the moment the fault is disarmed.
func TestFaultIngest(t *testing.T) {
	t.Cleanup(faults.Reset)
	live := NewLive(testDataset(t))
	batch := []corpus.Citation{ingestCitation(900040, "cassowary", 1)}

	faults.Arm(faults.SiteStoreIngest, faults.Always(), nil)
	if _, err := live.Ingest(batch); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if got := live.Current().Epoch; got != 0 {
		t.Fatalf("failed ingest published epoch %d", got)
	}
	if _, ok := live.Current().Corpus.Get(900040); ok {
		t.Fatal("failed ingest applied its batch")
	}

	faults.Disarm(faults.SiteStoreIngest)
	sn, err := live.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 1 {
		t.Fatalf("epoch %d after recovery, want 1", sn.Epoch)
	}
}

// TestConcurrentReadAndIngest races point lookups and snapshot readers
// against a stream of ingest swaps (run under -race in `make ingest-test`):
// CitationReader.Get ReadAts the log files while Live appends to them, and
// Current readers must only ever observe fully published epochs.
func TestConcurrentReadAndIngest(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	r, err := OpenCitationReader(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const batches = 40
	ids := ds.Corpus.IDs()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Get(ids[(g*31+i)%len(ids)]); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				cur := live.Current()
				if cur.Corpus.Len() < ds.Corpus.Len() {
					t.Error("observed a snapshot smaller than the base dataset")
					return
				}
			}
		}(g)
	}
	var last uint64
	for i := 0; i < batches; i++ {
		sn, err := live.Ingest([]corpus.Citation{ingestCitation(int64(910000+i), fmt.Sprintf("stress%d", i), 1+i%5)})
		if err != nil {
			t.Fatal(err)
		}
		if sn.Epoch != last+1 {
			t.Fatalf("epoch %d after batch %d, want %d", sn.Epoch, i, last+1)
		}
		last = sn.Epoch
	}
	close(stop)
	wg.Wait()
}

func BenchmarkIngest(b *testing.B) {
	live := NewLive(testDatasetSized(b, 300, 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := []corpus.Citation{
			ingestCitation(int64(920000+i*2), "benchterm", 1+i%7, 10+i%7),
			ingestCitation(int64(920001+i*2), "benchterm", 2+i%7, 11+i%7),
		}
		if _, err := live.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
}
