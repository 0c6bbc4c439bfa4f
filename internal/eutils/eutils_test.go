package eutils

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/store"
)

func testDataset(t *testing.T) *store.Snapshot {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 81, Nodes: 400, TopLevel: 8, MaxDepth: 7})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 82, Citations: 200, MeanConcepts: 15, FirstID: 900, YearLo: 2000, YearHi: 2008,
	})
	return &store.Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)}
}

func testEndpoint(t *testing.T, cfg ServerConfig) (*store.Snapshot, *Client) {
	t.Helper()
	ds := testDataset(t)
	ts := httptest.NewServer(NewServer(ds, cfg).Handler())
	t.Cleanup(ts.Close)
	return ds, &Client{BaseURL: ts.URL}
}

func TestESearchKeyword(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	term := ds.Corpus.At(0).Terms[0]
	ids, count, err := client.ESearch(context.Background(), term)
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Index.Search(term)
	if count != len(want) || len(ids) != len(want) {
		t.Fatalf("ESearch(%q) = %d ids / count %d, want %d", term, len(ids), count, len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("id %d: %d != %d", i, ids[i], want[i])
		}
	}
}

func TestESearchConceptMH(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	// Pick an annotated concept.
	cit := ds.Corpus.At(0)
	concept := cit.Concepts[len(cit.Concepts)-1]
	label := ds.Tree.Label(concept)
	ids, count, err := client.ESearch(context.Background(), label+"[mh]")
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || len(ids) != count {
		t.Fatalf("ESearch([mh]) = %d/%d", len(ids), count)
	}
	// Every returned citation must really carry the concept.
	for _, id := range ids {
		found := false
		for _, c := range ds.Corpus.Concepts(id) {
			if c == concept {
				found = true
			}
		}
		if !found {
			t.Fatalf("citation %d lacks concept %q", id, label)
		}
	}
	// Unknown concept: empty result, not an error.
	ids, count, err = client.ESearch(context.Background(), "No Such Concept[mh]")
	if err != nil || len(ids) != 0 || count != 0 {
		t.Fatalf("unknown concept: %v %d %d", err, len(ids), count)
	}
}

func TestESearchPaging(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{MaxRetMax: 7})
	// Choose a concept with many citations so paging (page > MaxRetMax on
	// the server) kicks in: the root's first child is on most paths.
	var label string
	best := 0
	for i := 1; i < ds.Tree.Len(); i++ {
		id := hierarchy.ConceptID(i)
		n := 0
		for j := 0; j < ds.Corpus.Len(); j++ {
			for _, c := range ds.Corpus.At(j).Concepts {
				if c == id {
					n++
				}
			}
		}
		if n > best {
			best, label = n, ds.Tree.Label(id)
		}
	}
	if best < 8 {
		t.Skip("no concept popular enough to exercise paging")
	}
	ids, count, err := client.ESearch(context.Background(), label+"[mh]")
	if err != nil {
		t.Fatal(err)
	}
	if count != best || len(ids) != best {
		t.Fatalf("paged ESearch = %d/%d, want %d", len(ids), count, best)
	}
}

func TestESummary(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	want := []corpus.CitationID{ds.Corpus.At(0).ID, ds.Corpus.At(5).ID}
	sums, err := client.ESummary(context.Background(), append(want, 424242)) // unknown dropped
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for i, s := range sums {
		cit, _ := ds.Corpus.Get(want[i])
		if s.Title != cit.Title || s.Year != cit.Year || len(s.Authors) != len(cit.Authors) {
			t.Fatalf("summary %d = %+v, want %+v", i, s, cit)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ds := testDataset(t)
	ts := httptest.NewServer(NewServer(ds, ServerConfig{}).Handler())
	defer ts.Close()
	cases := []string{
		"/entrez/eutils/esearch.fcgi?db=protein&term=x",
		"/entrez/eutils/esearch.fcgi?db=pubmed",
		"/entrez/eutils/esearch.fcgi?db=pubmed&term=x&retstart=-1",
		"/entrez/eutils/esearch.fcgi?db=pubmed&term=x&retmax=zz",
		"/entrez/eutils/esummary.fcgi?db=pubmed&id=notanumber",
		"/entrez/eutils/esummary.fcgi?db=gene&id=1",
	}
	for _, path := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestRateLimitAndClientRetry(t *testing.T) {
	ds := testDataset(t)
	srv := NewServer(ds, ServerConfig{RequestsPerSecond: 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A burst beyond the bucket must see 429s at the raw HTTP level.
	got429 := false
	for i := 0; i < 60; i++ {
		resp, err := http.Get(ts.URL + "/entrez/eutils/esearch.fcgi?db=pubmed&term=x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
		}
	}
	if !got429 {
		t.Fatal("rate limiter never fired")
	}

	// The client retries through the limiter.
	client := &Client{BaseURL: ts.URL, Pace: time.Millisecond}
	term := ds.Corpus.At(0).Terms[0]
	if _, _, err := client.ESearch(context.Background(), term); err != nil {
		t.Fatalf("client did not recover from 429s: %v", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, client := testEndpoint(t, ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.ESearch(ctx, "anything"); err == nil {
		t.Fatal("cancelled context did not abort")
	}
}

func TestCrawlReconstructsAssociations(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	var checkpoints int
	assoc, err := Crawl(context.Background(), client, ds.Tree, func(done, total int, tuples int64) {
		checkpoints++
	})
	if err != nil {
		t.Fatal(err)
	}
	if assoc.Queries != ds.Tree.Len()-1 {
		t.Fatalf("queries = %d, want one per non-root concept (%d)", assoc.Queries, ds.Tree.Len()-1)
	}
	if checkpoints == 0 {
		t.Fatal("no progress checkpoints")
	}
	// The crawl must reproduce the corpus associations exactly — the
	// §VII off-line pipeline round-trip.
	if err := assoc.VerifyAgainst(ds.Corpus); err != nil {
		t.Fatal(err)
	}
	// Counts agree with tuple totals.
	var sum int64
	for _, c := range assoc.Counts {
		sum += c
	}
	if sum != assoc.Tuples {
		t.Fatalf("counts sum %d != tuples %d", sum, assoc.Tuples)
	}
}

func TestVerifyAgainstDetectsCorruption(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	assoc, err := Crawl(context.Background(), client, ds.Tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one tuple.
	for c, list := range assoc.ByConcept {
		if len(list) > 1 {
			assoc.ByConcept[c] = list[1:]
			break
		}
	}
	if err := assoc.VerifyAgainst(ds.Corpus); err == nil {
		t.Fatal("corrupted crawl passed verification")
	}
}

func TestXMLWireFormat(t *testing.T) {
	ds := testDataset(t)
	ts := httptest.NewServer(NewServer(ds, ServerConfig{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/entrez/eutils/esearch.fcgi?db=pubmed&term=" + ds.Corpus.At(0).Terms[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "<eSearchResult>") || !strings.Contains(body, "<Count>") {
		t.Fatalf("not eutils XML: %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "xml") {
		t.Fatalf("content type %q", ct)
	}
}

func TestEFetchRoundTrip(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	want := []corpus.CitationID{ds.Corpus.At(0).ID, ds.Corpus.At(7).ID, 424242}
	cits, stats, err := client.EFetch(context.Background(), ds.Tree, want)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imported != 2 || len(cits) != 2 {
		t.Fatalf("stats = %+v, cits = %d", stats, len(cits))
	}
	for i, c := range cits {
		orig, _ := ds.Corpus.Get(want[i])
		if c.ID != orig.ID || c.Title != orig.Title || c.Year != orig.Year {
			t.Fatalf("citation %d header differs", i)
		}
		if len(c.Concepts) != len(orig.Concepts) {
			t.Fatalf("citation %d concepts differ: %d vs %d", i, len(c.Concepts), len(orig.Concepts))
		}
		for j := range c.Concepts {
			if c.Concepts[j] != orig.Concepts[j] {
				t.Fatalf("citation %d concept %d differs", i, j)
			}
		}
	}
}

// TestSearchFetchImportPipeline is the full real-integration loop: search
// the simulated PubMed, EFetch the results, and assemble a working local
// dataset from nothing but the wire protocol plus a MeSH copy.
func TestSearchFetchImportPipeline(t *testing.T) {
	ds, client := testEndpoint(t, ServerConfig{})
	ctx := context.Background()
	term := ds.Corpus.At(0).Terms[0]
	ids, _, err := client.ESearch(ctx, term)
	if err != nil {
		t.Fatal(err)
	}
	cits, stats, err := client.EFetch(ctx, ds.Tree, ids)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imported != len(ids) {
		t.Fatalf("imported %d of %d", stats.Imported, len(ids))
	}
	corp, err := corpus.New(ds.Tree, cits, make([]int64, ds.Tree.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if corp.Len() != len(ids) {
		t.Fatalf("local corpus has %d citations", corp.Len())
	}
}
