// Package rank implements the "simple ranking techniques" BioNav layers on
// top of categorization (§I): a BM25 relevance scorer over the citation
// corpus used to order SHOWRESULTS listings, with a recency tiebreak.
// Citation term lists are sets (the tokenizer deduplicates), so term
// frequency is binary and BM25 reduces to IDF weighting with document-
// length normalization — appropriate for title/abstract-token retrieval.
package rank

import (
	"math"
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
	cit, ok := s.corp.Get(id)
	if !ok {
		return 0
	}
	terms := corpus.Tokenize(query)
	if len(terms) == 0 {
		return 0
	}
	has := make(map[string]struct{}, len(cit.Terms))
	for _, t := range cit.Terms {
		has[t] = struct{}{}
	}
	norm := k1 * (1 - b + b*float64(len(cit.Terms))/s.avgDocLen)
	score := 0.0
	for _, t := range terms {
		if _, ok := has[t]; !ok {
			continue
		}
		// Binary tf: tf(k1+1)/(tf+norm) with tf=1.
		score += s.idf(t) * (k1 + 1) / (1 + norm)
	}
	return score
}

// Scored pairs a citation with its relevance.
type Scored struct {
	ID    corpus.CitationID
	Score float64
}

// Rank orders ids by descending BM25 score; ties break by descending year
// (prefer recent literature) and then ascending ID for determinism.
func (s *Scorer) Rank(query string, ids []corpus.CitationID) []Scored {
	out := make([]Scored, 0, len(ids))
	for _, id := range ids {
		out = append(out, Scored{ID: id, Score: s.Score(query, id)})
	}
	year := func(id corpus.CitationID) int {
		if cit, ok := s.corp.Get(id); ok {
			return cit.Year
		}
		return 0
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if yi, yj := year(out[i].ID), year(out[j].ID); yi != yj {
			return yi > yj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TopK returns the k highest-ranked citation IDs for the query among ids.
func (s *Scorer) TopK(query string, ids []corpus.CitationID, k int) []corpus.CitationID {
	ranked := s.Rank(query, ids)
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]corpus.CitationID, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].ID
	}
	return out
}
