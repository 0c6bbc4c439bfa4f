// Package corpus models the MEDLINE citation database BioNav navigates:
// citations, their MeSH concept associations, and per-concept global
// citation counts. The paper obtains citation↔concept associations by
// querying PubMed once per concept (747M tuples, §VII); here the corpus is
// synthesized directly with the same statistical properties — roughly 90
// concepts per citation (PubMed indexing density), annotations correlated
// along hierarchy paths (hence heavy duplication across sibling concepts),
// and IDF-style global counts that decay with concept depth.
package corpus

import (
	"fmt"
	"sort"

	"bionav/internal/hierarchy"
)

// CitationID is a PMID-like citation identifier.
type CitationID int64

// Citation is one bibliographic record.
type Citation struct {
	ID       CitationID
	Title    string
	Authors  []string
	Year     int
	Terms    []string // lowercase searchable tokens (title + abstract)
	Concepts []hierarchy.ConceptID
}

// Corpus is an immutable citation collection bound to a concept hierarchy.
type Corpus struct {
	tree        *hierarchy.Tree
	citations   []Citation
	byID        map[CitationID]int
	globalCount []int64 // indexed by ConceptID
	totalTerms  int     // Σ len(Terms) over citations
}

// New assembles a corpus from citations and per-concept global counts.
// globalCount must have one entry per hierarchy node; New clamps each
// count up to the observed in-corpus count so that selectivities
// |res(c)|/cnt(c) never exceed 1.
func New(tree *hierarchy.Tree, citations []Citation, globalCount []int64) (*Corpus, error) {
	if len(globalCount) != tree.Len() {
		return nil, fmt.Errorf("corpus: %d global counts for %d concepts", len(globalCount), tree.Len())
	}
	c := &Corpus{
		tree:        tree,
		citations:   citations,
		byID:        make(map[CitationID]int, len(citations)),
		globalCount: globalCount,
	}
	observed := make([]int64, tree.Len())
	for i := range citations {
		cit := &citations[i]
		if _, dup := c.byID[cit.ID]; dup {
			return nil, fmt.Errorf("corpus: duplicate citation ID %d", cit.ID)
		}
		c.byID[cit.ID] = i
		c.totalTerms += len(cit.Terms)
		for _, cid := range cit.Concepts {
			if cid <= 0 || int(cid) >= tree.Len() {
				return nil, fmt.Errorf("corpus: citation %d annotated with unknown concept %d", cit.ID, cid)
			}
			observed[cid]++
		}
	}
	for i := range c.globalCount {
		if c.globalCount[i] < observed[i] {
			c.globalCount[i] = observed[i]
		}
	}
	return c, nil
}

// Apply returns a new Corpus with batch applied copy-on-write: the
// receiver is never modified and stays valid for concurrent readers. A
// batch citation whose ID already exists replaces the old record in place
// (upsert, last wins — also within the batch); fresh IDs append in batch
// order. Per-concept global counts carry over with incremental deltas: a
// new annotation of concept c bumps cnt(c) by one — the corpus is the
// MEDLINE stand-in, so a citation arriving for c is also a MEDLINE-wide
// citation for c — while an upsert that drops an annotation never
// decrements (global counts are cumulative), keeping the
// selectivity invariant cnt(c) >= |res(c)| intact. The term total moves
// by each fresh citation's term count, and by the difference an upsert
// makes. The header structures (citation slice, ID map, count slice) are
// copied; the hierarchy is shared.
func (c *Corpus) Apply(batch []Citation) (*Corpus, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("corpus: empty batch")
	}
	cits := make([]Citation, len(c.citations), len(c.citations)+len(batch))
	copy(cits, c.citations)
	byID := make(map[CitationID]int, len(c.byID)+len(batch))
	for id, i := range c.byID {
		byID[id] = i
	}
	counts := append([]int64(nil), c.globalCount...)
	total := c.totalTerms
	for i := range batch {
		cit := batch[i]
		for _, cid := range cit.Concepts {
			if cid <= 0 || int(cid) >= c.tree.Len() {
				return nil, fmt.Errorf("corpus: citation %d annotated with unknown concept %d", cit.ID, cid)
			}
		}
		if j, ok := byID[cit.ID]; ok {
			had := make(map[hierarchy.ConceptID]bool, len(cits[j].Concepts))
			for _, cid := range cits[j].Concepts {
				had[cid] = true
			}
			for _, cid := range cit.Concepts {
				if !had[cid] {
					counts[cid]++
				}
			}
			total += len(cit.Terms) - len(cits[j].Terms)
			cits[j] = cit
			continue
		}
		byID[cit.ID] = len(cits)
		cits = append(cits, cit)
		total += len(cit.Terms)
		for _, cid := range cit.Concepts {
			counts[cid]++
		}
	}
	return &Corpus{tree: c.tree, citations: cits, byID: byID, globalCount: counts, totalTerms: total}, nil
}

// Tree returns the concept hierarchy the corpus is annotated against.
func (c *Corpus) Tree() *hierarchy.Tree { return c.tree }

// Len reports the number of citations.
func (c *Corpus) Len() int { return len(c.citations) }

// TotalTerms reports the term count summed over every citation, the
// corpus length BM25's mean document length is taken from.
func (c *Corpus) TotalTerms() int { return c.totalTerms }

// At returns the i-th citation in storage order.
func (c *Corpus) At(i int) *Citation { return &c.citations[i] }

// Get returns the citation with the given ID.
func (c *Corpus) Get(id CitationID) (*Citation, bool) {
	i, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	return &c.citations[i], true
}

// Concepts returns the concept annotations of the given citation, or nil if
// the citation is unknown. The returned slice must not be modified.
func (c *Corpus) Concepts(id CitationID) []hierarchy.ConceptID {
	if cit, ok := c.Get(id); ok {
		return cit.Concepts
	}
	return nil
}

// GlobalCount returns the MEDLINE-wide citation count of concept id — the
// cnt(n) denominator of the EXPLORE probability (§IV).
func (c *Corpus) GlobalCount(id hierarchy.ConceptID) int64 {
	return c.globalCount[id]
}

// IDs returns all citation IDs in storage order.
func (c *Corpus) IDs() []CitationID {
	out := make([]CitationID, len(c.citations))
	for i := range c.citations {
		out[i] = c.citations[i].ID
	}
	return out
}

// Stats summarizes annotation density; tests compare it against the paper's
// published figures (~90 concepts per citation under PubMed indexing).
type Stats struct {
	Citations       int
	AssocTuples     int64   // total (concept, citation) pairs, cf. §VII's 747M
	MeanConcepts    float64 // per citation
	MaxConcepts     int
	DistinctUsed    int // concepts with at least one citation
	MeanGlobalCount float64
}

// ComputeStats scans the corpus once.
func (c *Corpus) ComputeStats() Stats {
	s := Stats{Citations: len(c.citations)}
	used := make(map[hierarchy.ConceptID]struct{})
	for i := range c.citations {
		n := len(c.citations[i].Concepts)
		s.AssocTuples += int64(n)
		if n > s.MaxConcepts {
			s.MaxConcepts = n
		}
		for _, cid := range c.citations[i].Concepts {
			used[cid] = struct{}{}
		}
	}
	s.DistinctUsed = len(used)
	if s.Citations > 0 {
		s.MeanConcepts = float64(s.AssocTuples) / float64(s.Citations)
	}
	var total int64
	for _, g := range c.globalCount {
		total += g
	}
	if len(c.globalCount) > 0 {
		s.MeanGlobalCount = float64(total) / float64(len(c.globalCount))
	}
	return s
}

// ResultCounts returns, for a set of result citations, how many of them are
// associated with each concept — the |res(c)| numerator used throughout the
// cost model. Unknown citation IDs are ignored. The result maps only
// concepts with non-zero counts.
func (c *Corpus) ResultCounts(results []CitationID) map[hierarchy.ConceptID]int {
	counts := make(map[hierarchy.ConceptID]int)
	for _, id := range results {
		for _, cid := range c.Concepts(id) {
			counts[cid]++
		}
	}
	return counts
}

// SortedConcepts returns the concepts annotating id in ascending ID order;
// used by tests and deterministic output paths.
func SortedConcepts(cit *Citation) []hierarchy.ConceptID {
	out := append([]hierarchy.ConceptID(nil), cit.Concepts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
