// Package rank implements the "simple ranking techniques" BioNav layers on
// top of categorization (§I): a BM25 relevance scorer over the citation
// corpus used to order SHOWRESULTS listings, with a recency tiebreak.
// Citation term lists are sets (the tokenizer deduplicates), so term
// frequency is binary and BM25 reduces to IDF weighting with document-
// length normalization — appropriate for title/abstract-token retrieval.
package rank

import (
	"math"
	"slices"
	"sort"

	"bionav/internal/corpus"
	"bionav/internal/index"
)

// BM25 free parameters; the common defaults.
const (
	k1 = 1.2
	b  = 0.75
)

// Scorer scores citations against keyword queries. Build one per dataset;
// it is immutable and safe for concurrent use.
type Scorer struct {
	corp      *corpus.Corpus
	ix        *index.Index
	avgDocLen float64
}

// NewScorer takes the mean document length from the corpus's term total;
// it does not scan the citations.
func NewScorer(corp *corpus.Corpus, ix *index.Index) *Scorer {
	avg := 1.0
	if corp.Len() > 0 {
		avg = float64(corp.TotalTerms()) / float64(corp.Len())
	}
	if avg == 0 {
		avg = 1
	}
	return &Scorer{corp: corp, ix: ix, avgDocLen: avg}
}

// idf is the BM25+ inverse document frequency, strictly positive.
func (s *Scorer) idf(term string) float64 {
	df := float64(s.ix.DocFreq(term))
	n := float64(s.ix.Docs())
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// Score returns the BM25 relevance of one citation for the query. Unknown
// citations score 0.
func (s *Scorer) Score(query string, id corpus.CitationID) float64 {
	score, _ := s.score(s.weigh(query), id)
	return score
}

// weighted is a query term with its idf.
type weighted struct {
	term string
	idf  float64
}

// weigh tokenizes the query and computes each term's idf, once for every
// citation a Rank scores.
func (s *Scorer) weigh(query string) []weighted {
	terms := corpus.Tokenize(query)
	q := make([]weighted, len(terms))
	for i, t := range terms {
		q[i] = weighted{term: t, idf: s.idf(t)}
	}
	return q
}

// score sums the BM25 weights of the query terms the citation holds, and
// returns the citation's year with it. Tokenize deduplicates, so each term
// counts once. An unknown citation scores 0 in year 0.
func (s *Scorer) score(q []weighted, id corpus.CitationID) (float64, int) {
	cit, ok := s.corp.Get(id)
	if !ok {
		return 0, 0
	}
	norm := k1 * (1 - b + b*float64(len(cit.Terms))/s.avgDocLen)
	score := 0.0
	for _, t := range q {
		if !slices.Contains(cit.Terms, t.term) {
			continue
		}
		// Binary tf: tf(k1+1)/(tf+norm) with tf=1.
		score += t.idf * (k1 + 1) / (1 + norm)
	}
	return score, cit.Year
}

// Scored pairs a citation with its relevance.
type Scored struct {
	ID    corpus.CitationID
	Score float64
}

// Rank orders ids by descending BM25 score; ties break by descending year
// (prefer recent literature) and then ascending ID for determinism. Each
// citation is looked up once, when it is scored.
func (s *Scorer) Rank(query string, ids []corpus.CitationID) []Scored {
	q := s.weigh(query)
	r := ranking{out: make([]Scored, len(ids)), years: make([]int, len(ids))}
	for i, id := range ids {
		r.out[i].ID = id
		r.out[i].Score, r.years[i] = s.score(q, id)
	}
	sort.Sort(r)
	return r.out
}

// ranking sorts scored citations together with their years.
type ranking struct {
	out   []Scored
	years []int
}

func (r ranking) Len() int { return len(r.out) }

func (r ranking) Less(i, j int) bool {
	if r.out[i].Score != r.out[j].Score {
		return r.out[i].Score > r.out[j].Score
	}
	if r.years[i] != r.years[j] {
		return r.years[i] > r.years[j]
	}
	return r.out[i].ID < r.out[j].ID
}

func (r ranking) Swap(i, j int) {
	r.out[i], r.out[j] = r.out[j], r.out[i]
	r.years[i], r.years[j] = r.years[j], r.years[i]
}
