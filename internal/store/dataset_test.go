package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/wal"
)

func testDataset(tb testing.TB) *Snapshot {
	tb.Helper()
	return testDatasetSized(tb, 300, 120)
}

func testDatasetSized(tb testing.TB, concepts, citations int) *Snapshot {
	tb.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 21, Nodes: concepts, TopLevel: 8, MaxDepth: 7})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 4, Citations: citations, MeanConcepts: 12, FirstID: 7000, YearLo: 1999, YearHi: 2008})
	return &Snapshot{Tree: tree, Corpus: c, Index: index.Build(c)}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if got.Tree.Len() != ds.Tree.Len() {
		t.Fatalf("tree size %d vs %d", got.Tree.Len(), ds.Tree.Len())
	}
	for i := 0; i < ds.Tree.Len(); i++ {
		a, b := ds.Tree.Node(hierarchy.ConceptID(i)), got.Tree.Node(hierarchy.ConceptID(i))
		if a.Label != b.Label || a.Parent != b.Parent || a.TreeID != b.TreeID {
			t.Fatalf("node %d differs", i)
		}
		if ds.Corpus.GlobalCount(a.ID) != got.Corpus.GlobalCount(a.ID) {
			t.Fatalf("global count %d differs", i)
		}
	}

	if got.Corpus.Len() != ds.Corpus.Len() {
		t.Fatalf("corpus size %d vs %d", got.Corpus.Len(), ds.Corpus.Len())
	}
	for i := 0; i < ds.Corpus.Len(); i++ {
		a, b := ds.Corpus.At(i), got.Corpus.At(i)
		if a.ID != b.ID || a.Title != b.Title || a.Year != b.Year {
			t.Fatalf("citation %d header differs", i)
		}
		if len(a.Authors) != len(b.Authors) || len(a.Terms) != len(b.Terms) || len(a.Concepts) != len(b.Concepts) {
			t.Fatalf("citation %d payload lengths differ", i)
		}
		for j := range a.Concepts {
			if a.Concepts[j] != b.Concepts[j] {
				t.Fatalf("citation %d concept %d differs", i, j)
			}
		}
	}

	if got.Index.Docs() != ds.Index.Docs() || got.Index.Terms() != ds.Index.Terms() {
		t.Fatalf("index stats differ")
	}
	// A real search must behave identically.
	q := ds.Corpus.At(0).Terms[0]
	a, b := ds.Index.Search(q), got.Index.Search(q)
	if len(a) != len(b) {
		t.Fatalf("search result size differs for %q", q)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("search results differ for %q", q)
		}
	}
}

func TestLoadDatasetMissingTable(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "citations.tbl")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("load succeeded without citations table")
	}
}

// conceptRecord encodes one concepts-table record as save writes it:
// parent, label, global count.
func conceptRecord(parent int64, label string) []byte {
	var enc Encoder
	enc.PutVarint(parent)
	enc.PutString(label)
	enc.PutUvarint(3)
	return enc.Bytes()
}

// writeTables writes a database directory holding the given concepts and
// citations records, bypassing Save's checks.
func writeTables(t *testing.T, dir string, concepts [][]byte, citations []corpus.Citation) {
	t.Helper()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := w.CreateTable(tableConcepts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range concepts {
		if err := ct.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	cit, err := w.CreateTable(tableCitations)
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	for i := range citations {
		enc.Reset()
		if err := encodeCitation(&enc, &citations[i]); err != nil {
			t.Fatal(err)
		}
		if err := cit.Append(enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDatasetRejectsBadTables: LoadDataset is the one reader of the
// concepts table, and each structural defect of the stored hierarchy or
// its citations fails the load.
func TestLoadDatasetRejectsBadTables(t *testing.T) {
	root := conceptRecord(-1, "root")
	tree := [][]byte{root, conceptRecord(0, "cell death"), conceptRecord(1, "apoptosis")}
	cit := func(id corpus.CitationID, concepts ...hierarchy.ConceptID) corpus.Citation {
		return corpus.Citation{ID: id, Title: "t", Year: 2001, Terms: []string{"apoptosis"}, Concepts: concepts}
	}
	cases := []struct {
		name      string
		concepts  [][]byte
		citations []corpus.Citation
		corrupt   bool   // the error wraps ErrCorrupt
		names     string // the error names this
	}{
		{name: "valid", concepts: tree, citations: []corpus.Citation{cit(1, 1, 2), cit(2, 1)}},
		{name: "root has a parent", concepts: [][]byte{conceptRecord(0, "root"), conceptRecord(0, "a")}, corrupt: true},
		{name: "forward parent", concepts: [][]byte{root, conceptRecord(2, "a"), conceptRecord(0, "b")}, corrupt: true},
		{name: "self parent", concepts: [][]byte{root, conceptRecord(1, "a")}, corrupt: true},
		{name: "negative parent", concepts: [][]byte{root, conceptRecord(-1, "a")}, corrupt: true},
		{name: "empty concepts table", concepts: nil, corrupt: true},
		{name: "trailing bytes", concepts: [][]byte{root, append(conceptRecord(0, "a"), 0)}, corrupt: true},
		{name: "duplicate label", concepts: [][]byte{root, conceptRecord(0, "apoptosis"), conceptRecord(0, "apoptosis")}, names: `"apoptosis"`},
		{name: "duplicate citation ID", concepts: tree, citations: []corpus.Citation{cit(7001, 1), cit(7001, 2)}, names: "7001"},
		{name: "unknown concept", concepts: tree, citations: []corpus.Citation{cit(1, 1, 9)}, names: "concept 9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTables(t, dir, c.concepts, c.citations)
			sn, err := LoadDataset(dir)
			switch {
			case !c.corrupt && c.names == "":
				if err != nil {
					t.Fatalf("LoadDataset: %v", err)
				}
				if sn.Tree.Len() != len(c.concepts) || sn.Corpus.Len() != len(c.citations) {
					t.Fatalf("loaded %d concepts and %d citations", sn.Tree.Len(), sn.Corpus.Len())
				}
			case err == nil:
				t.Fatal("LoadDataset accepted the tables")
			case c.corrupt && !errors.Is(err, ErrCorrupt):
				t.Fatalf("err = %v, want ErrCorrupt", err)
			case !strings.Contains(err.Error(), c.names):
				t.Fatalf("err = %v, want it to name %s", err, c.names)
			}
		})
	}
}

// TestLoadDatasetIgnoresOldIndexTable: a directory written by an earlier
// version also holds a searchindex table, a text-encoded copy of the
// inverted index. LoadDataset never reads it: the index comes from the
// citations, and saving into the directory again removes the table.
func TestLoadDatasetIgnoresOldIndexTable(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	err := ds.SaveWith(dir, func(w *Writer) error {
		tw, err := w.CreateTable("searchindex")
		if err != nil {
			return err
		}
		return tw.Append([]byte("bionav-index v1 1 1\nzzqx\t5\n"))
	})
	if err != nil {
		t.Fatalf("SaveWith: %v", err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if ids := got.Index.Search("zzqx"); len(ids) != 0 {
		t.Fatalf("Search(zzqx) = %v, want nothing: the old table was read", ids)
	}
	built := index.Build(got.Corpus)
	for _, term := range got.Corpus.At(0).Terms {
		if a, b := got.Index.Search(term), built.Search(term); !reflect.DeepEqual(a, b) {
			t.Fatalf("Search(%q) = %v, index.Build gives %v", term, a, b)
		}
	}

	if err := got.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "*.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "citations.tbl"), filepath.Join(dir, "concepts.tbl")}
	if !reflect.DeepEqual(tables, want) {
		t.Fatalf("tables after re-save = %v, want %v", tables, want)
	}
}

func TestLoadDatasetEmptyDir(t *testing.T) {
	if _, err := LoadDataset(t.TempDir()); err == nil {
		t.Fatal("load succeeded on empty directory")
	}
}

func TestSaveOverwritesExisting(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Save again into the same directory; load must still succeed (stale
	// tables cleaned, no duplicate records).
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corpus.Len() != ds.Corpus.Len() {
		t.Fatalf("corpus size %d after re-save", got.Corpus.Len())
	}
}

func BenchmarkDatasetSaveLoad(b *testing.B) {
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 21, Nodes: 2000, TopLevel: 16, MaxDepth: 9})
	c := corpus.Generate(tree, corpus.GenConfig{Seed: 4, Citations: 1000, MeanConcepts: 40, FirstID: 1, YearLo: 1999, YearHi: 2008})
	ds := &Snapshot{Tree: tree, Corpus: c, Index: index.Build(c)}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Save(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadDataset(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadDatasetTornTailAtEveryOffset cuts each base table of a small
// saved dataset at every byte offset, as a crash during Save leaves it.
// Every cut that does not end on a frame boundary must fail the load with
// ErrCorrupt instead of serving part of the corpus. A cut exactly on a
// frame boundary leaves a shorter table that is valid frame by frame;
// this test does not pin what loading it does.
func TestLoadDatasetTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	if err := testDatasetSized(t, 40, 12).Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{tableConcepts, tableCitations} {
		path := filepath.Join(dir, table+tableSuffix)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		boundary := map[int]bool{len(wal.Magic): true}
		if _, _, err := wal.Scan(path, func(off int64, p []byte) error {
			boundary[int(off)+len(p)] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		torn := 0
		for cut := 0; cut < len(full); cut++ {
			if boundary[cut] {
				continue
			}
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadDataset(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d of %d bytes: LoadDataset err = %v, want ErrCorrupt", table, cut, len(full), err)
			}
			torn++
		}
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		if torn < len(full)/2 {
			t.Fatalf("%s: only %d of %d cuts were torn", table, torn, len(full))
		}
	}
	if _, err := LoadDataset(dir); err != nil {
		t.Fatalf("restored tables: %v", err)
	}
}
