// Package index implements the keyword search engine BioNav queries for
// citation IDs — the stand-in for PubMed's ESearch utility (§VII). It is an
// in-memory inverted index with sorted postings lists and conjunctive
// (AND) and disjunctive (OR) evaluation, built from the corpus's citation
// terms.
package index

import (
	"sort"

	"bionav/internal/corpus"
)

// Index maps terms to sorted, duplicate-free postings of citation IDs.
// An Index is immutable after Build and safe for concurrent readers.
type Index struct {
	postings map[string][]corpus.CitationID
	docs     int
}

// Build indexes every citation in c by its Terms.
func Build(c *corpus.Corpus) *Index {
	ix := &Index{postings: make(map[string][]corpus.CitationID)}
	for i := 0; i < c.Len(); i++ {
		cit := c.At(i)
		ix.add(cit.ID, cit.Terms)
	}
	ix.finish()
	return ix
}

func (ix *Index) add(id corpus.CitationID, terms []string) {
	ix.docs++
	for _, t := range terms {
		ix.postings[t] = append(ix.postings[t], id)
	}
}

// finish sorts and deduplicates every postings list.
func (ix *Index) finish() {
	for t, list := range ix.postings {
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		ix.postings[t] = dedupeSorted(list)
	}
}

func dedupeSorted(list []corpus.CitationID) []corpus.CitationID {
	out := list[:0]
	for i, v := range list {
		if i == 0 || v != list[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Delta describes one document's term change for an incremental update.
// Old nil means the document is new to the index; for an upserted document
// it holds the terms previously indexed under ID, so stale postings are
// removed.
type Delta struct {
	ID  corpus.CitationID
	Old []string // previously indexed terms; nil for a fresh document
	New []string
}

// Apply returns a new Index with the deltas applied copy-on-write: the
// postings map is fresh, but every untouched term shares its postings
// slice with the receiver, so the receiver stays valid, immutable, and
// safe for concurrent readers while the new version is built. Cost is
// O(terms) pointer copies plus O(postings) only for the touched terms —
// the incremental path that makes ingestion cheaper than a rebuild.
func (ix *Index) Apply(deltas []Delta) *Index {
	out := &Index{postings: make(map[string][]corpus.CitationID, len(ix.postings)), docs: ix.docs}
	for t, l := range ix.postings {
		out.postings[t] = l
	}
	for _, d := range deltas {
		if d.Old == nil {
			out.docs++
		}
		oldSet := make(map[string]bool, len(d.Old))
		for _, t := range d.Old {
			oldSet[t] = true
		}
		newSet := make(map[string]bool, len(d.New))
		for _, t := range d.New {
			newSet[t] = true
		}
		for t := range oldSet {
			if newSet[t] {
				continue
			}
			if l := removeID(out.postings[t], d.ID); len(l) == 0 {
				delete(out.postings, t)
			} else {
				out.postings[t] = l
			}
		}
		for t := range newSet {
			if oldSet[t] {
				continue
			}
			out.postings[t] = insertID(out.postings[t], d.ID)
		}
	}
	return out
}

// insertID returns a sorted duplicate-free copy of list with id added; the
// input slice is never modified (it may be shared with an older Index).
func insertID(list []corpus.CitationID, id corpus.CitationID) []corpus.CitationID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if i < len(list) && list[i] == id {
		return list
	}
	out := make([]corpus.CitationID, 0, len(list)+1)
	out = append(out, list[:i]...)
	out = append(out, id)
	return append(out, list[i:]...)
}

// removeID returns a copy of list without id, or the original slice when
// id is absent.
func removeID(list []corpus.CitationID, id corpus.CitationID) []corpus.CitationID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	if i >= len(list) || list[i] != id {
		return list
	}
	out := make([]corpus.CitationID, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...)
}

// Docs reports the number of indexed documents.
func (ix *Index) Docs() int { return ix.docs }

// Terms reports the number of distinct indexed terms.
func (ix *Index) Terms() int { return len(ix.postings) }

// DocFreq reports how many documents contain term (after tokenization
// normalization; pass lowercase terms).
func (ix *Index) DocFreq(term string) int { return len(ix.postings[term]) }

// Postings returns the sorted postings list for term. The returned slice
// must not be modified.
func (ix *Index) Postings(term string) []corpus.CitationID { return ix.postings[term] }

// Search tokenizes query with the corpus tokenizer and returns the IDs of
// documents containing every token (conjunctive semantics, like PubMed's
// default). The result is sorted ascending. An empty or all-stop query
// returns nil.
func (ix *Index) Search(query string) []corpus.CitationID {
	terms := corpus.Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	// Intersect rarest-first so the running result shrinks fastest.
	sort.Slice(terms, func(i, j int) bool {
		return len(ix.postings[terms[i]]) < len(ix.postings[terms[j]])
	})
	result := ix.postings[terms[0]]
	for _, t := range terms[1:] {
		if len(result) == 0 {
			return nil
		}
		result = intersect(result, ix.postings[t])
	}
	return append([]corpus.CitationID(nil), result...)
}

// intersect merges two sorted lists, using galloping search when the sizes
// are lopsided — the standard trick for conjunctive query evaluation.
func intersect(a, b []corpus.CitationID) []corpus.CitationID {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]corpus.CitationID, 0, len(a))
	if len(a) == 0 {
		return out
	}
	if len(b) >= 16*len(a) {
		// Gallop: binary-search each element of the short list in the
		// remaining suffix of the long list.
		lo := 0
		for _, v := range a {
			i := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= v })
			if i < len(b) && b[i] == v {
				out = append(out, v)
			}
			lo = i
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union merges two sorted duplicate-free lists into one.
func union(a, b []corpus.CitationID) []corpus.CitationID {
	out := make([]corpus.CitationID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
