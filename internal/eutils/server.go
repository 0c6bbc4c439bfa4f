// Package eutils simulates the NCBI Entrez Programming Utilities that
// BioNav integrates with (§VII): an ESearch/ESummary-compatible HTTP+XML
// interface over the synthetic corpus, a client with rate limiting and
// retry, and the off-line association crawler that issues one query per
// MeSH concept — the method the paper used to collect its 747M
// (concept, citation) tuples over 20 days of rate-limited requests.
//
// ESearch supports two term forms, mirroring PubMed:
//
//	term=prothymosin+alpha      keyword search (conjunctive)
//	term=Histones[mh]           MeSH-concept search: citations associated
//	                            with the concept labeled "Histones"
package eutils

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/store"
)

// ServerConfig tunes the simulated eutils endpoint.
type ServerConfig struct {
	// RequestsPerSecond is the per-server rate limit; exceeding it yields
	// HTTP 429, as NCBI enforces (3/s unauthenticated). <= 0 disables.
	RequestsPerSecond int
	// MaxRetMax caps the retmax parameter (NCBI caps at 100,000).
	MaxRetMax int
}

func (c *ServerConfig) fill() {
	if c.MaxRetMax <= 0 {
		c.MaxRetMax = 10000
	}
}

// Server is the simulated eutils service over one dataset.
type Server struct {
	ds        *store.Snapshot
	cfg       ServerConfig
	byConcept map[hierarchy.ConceptID][]corpus.CitationID

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewServer indexes the dataset for concept lookups.
func NewServer(ds *store.Snapshot, cfg ServerConfig) *Server {
	cfg.fill()
	s := &Server{
		ds:        ds,
		cfg:       cfg,
		byConcept: make(map[hierarchy.ConceptID][]corpus.CitationID),
		tokens:    float64(cfg.RequestsPerSecond),
		last:      time.Now(),
	}
	for i := 0; i < ds.Corpus.Len(); i++ {
		cit := ds.Corpus.At(i)
		for _, c := range cit.Concepts {
			s.byConcept[c] = append(s.byConcept[c], cit.ID)
		}
	}
	for c := range s.byConcept {
		list := s.byConcept[c]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	}
	return s
}

// Handler returns the eutils HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /entrez/eutils/esearch.fcgi", s.handleESearch)
	mux.HandleFunc("GET /entrez/eutils/esummary.fcgi", s.handleESummary)
	mux.HandleFunc("GET /entrez/eutils/efetch.fcgi", s.handleEFetch)
	return mux
}

// allow implements a token bucket over wall time.
func (s *Server) allow() bool {
	if s.cfg.RequestsPerSecond <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	rate := float64(s.cfg.RequestsPerSecond)
	s.tokens += now.Sub(s.last).Seconds() * rate
	if s.tokens > rate {
		s.tokens = rate
	}
	s.last = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// eSearchResult is the ESearch XML schema subset BioNav consumes.
type eSearchResult struct {
	XMLName  xml.Name `xml:"eSearchResult"`
	Count    int      `xml:"Count"`
	RetMax   int      `xml:"RetMax"`
	RetStart int      `xml:"RetStart"`
	IDs      []int64  `xml:"IdList>Id"`
}

// eSummaryResult is the ESummary XML schema subset.
type eSummaryResult struct {
	XMLName xml.Name `xml:"eSummaryResult"`
	Docs    []docSum `xml:"DocSum"`
	Err     string   `xml:"ERROR,omitempty"`
}

type docSum struct {
	ID      int64    `xml:"Id"`
	Title   string   `xml:"Item>Title"`
	PubYear int      `xml:"Item>PubYear"`
	Authors []string `xml:"Item>AuthorList>Author"`
}

func (s *Server) handleESearch(w http.ResponseWriter, r *http.Request) {
	if !s.allow() {
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	q := r.URL.Query()
	if db := q.Get("db"); db != "pubmed" {
		http.Error(w, fmt.Sprintf("unknown db %q", db), http.StatusBadRequest)
		return
	}
	term := q.Get("term")
	if term == "" {
		http.Error(w, "missing term", http.StatusBadRequest)
		return
	}
	retStart := atoiDefault(q.Get("retstart"), 0)
	retMax := atoiDefault(q.Get("retmax"), 20)
	if retMax > s.cfg.MaxRetMax {
		retMax = s.cfg.MaxRetMax
	}
	if retStart < 0 || retMax < 0 {
		http.Error(w, "negative paging", http.StatusBadRequest)
		return
	}

	ids := s.search(term)
	res := eSearchResult{Count: len(ids), RetStart: retStart}
	if retStart < len(ids) {
		end := retStart + retMax
		if end > len(ids) {
			end = len(ids)
		}
		for _, id := range ids[retStart:end] {
			res.IDs = append(res.IDs, int64(id))
		}
	}
	res.RetMax = len(res.IDs)
	writeXML(w, res)
}

// search resolves a term: "Label[mh]" as a MeSH concept association
// lookup, anything else as a keyword query.
func (s *Server) search(term string) []corpus.CitationID {
	if label, ok := strings.CutSuffix(term, "[mh]"); ok {
		id, found := s.ds.Tree.ByLabel(strings.TrimSpace(label))
		if !found {
			return nil
		}
		return s.byConcept[id]
	}
	return s.ds.Index.SearchQuery(term)
}

func (s *Server) handleESummary(w http.ResponseWriter, r *http.Request) {
	if !s.allow() {
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	q := r.URL.Query()
	if db := q.Get("db"); db != "pubmed" {
		http.Error(w, fmt.Sprintf("unknown db %q", db), http.StatusBadRequest)
		return
	}
	var res eSummaryResult
	for _, part := range strings.Split(q.Get("id"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad id %q", part), http.StatusBadRequest)
			return
		}
		cit, ok := s.ds.Corpus.Get(corpus.CitationID(id))
		if !ok {
			continue // PubMed silently drops unknown IDs
		}
		res.Docs = append(res.Docs, docSum{
			ID:      int64(cit.ID),
			Title:   cit.Title,
			PubYear: cit.Year,
			Authors: cit.Authors,
		})
	}
	writeXML(w, res)
}

// handleEFetch returns full citation records as a PubmedArticleSet — the
// endpoint real BioNav deployments EFetch and feed to the MEDLINE XML
// importer.
func (s *Server) handleEFetch(w http.ResponseWriter, r *http.Request) {
	if !s.allow() {
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	q := r.URL.Query()
	if db := q.Get("db"); db != "pubmed" {
		http.Error(w, fmt.Sprintf("unknown db %q", db), http.StatusBadRequest)
		return
	}
	var cits []corpus.Citation
	for _, part := range strings.Split(q.Get("id"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad id %q", part), http.StatusBadRequest)
			return
		}
		if cit, ok := s.ds.Corpus.Get(corpus.CitationID(id)); ok {
			cits = append(cits, *cit)
		}
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	if err := corpus.WriteMedlineXML(w, s.ds.Tree, cits); err != nil {
		// Headers already sent; the client sees a truncated body.
		return
	}
}

func writeXML(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write([]byte(xml.Header))
	_ = xml.NewEncoder(w).Encode(v)
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return v
}
