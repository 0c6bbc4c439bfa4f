package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/store"
	"bionav/internal/workload"
)

// batchSize is the number of citations per ingested batch.
const batchSize = 20

// zipfSkew is the query-popularity skew of the bionav-loadgen user model:
// the Table I queries, ranked in published order, are drawn with
// probability proportional to 1/rank^1.07.
const zipfSkew = 1.07

// inputs is everything a run feeds the program, derived from the seed.
// The corpus itself is the fixed full-scale Table I workload (48,000
// concepts, ~5,000 citations): a per-seed corpus would make the figures
// of different seeds incomparable. The seed drives the session order,
// the cold-query keys and the ingested batches.
type inputs struct {
	seed     uint64
	spec     workloadSpec
	dataset  *store.Dataset
	keywords []string // the Table I queries, in published order
	block    []int    // one block of sessions' keywords (see zipfBlock)

	// Oracle for result counts, built from the generator's planted result
	// sets and a plain scan of citation terms — not from the search index.
	planted   [][]corpus.CitationID          // per keyword, sorted
	termDocs  map[string][]corpus.CitationID // per term, sorted
	coldTerms [][]string                     // per keyword: the terms it may exclude, in a seeded order

	batches [][]corpus.Citation // made on demand by batch
	added   [][]int             // added[e][k]: citations for keyword k in the first e batches
	nextID  corpus.CitationID
}

// sessionPlan is one session's script: its query and the random stream
// its user draws every decision from.
type sessionPlan struct {
	idx      int
	keywords string
	kw       int    // index into inputs.keywords
	exclude  string // cold-query sessions: the term excluded with NOT; "" otherwise
	rng      *rand.Rand
}

func newInputs(seed uint64, spec workloadSpec) (*inputs, error) {
	w, err := workload.Generate(workload.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	in := &inputs{seed: seed, spec: spec, dataset: w.Dataset}
	for _, q := range w.Queries {
		in.keywords = append(in.keywords, q.Spec.Keyword)
		ids := append([]corpus.CitationID(nil), q.Results...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		in.planted = append(in.planted, ids)
	}
	in.block = zipfBlock(len(in.keywords), zipfSkew)
	in.pickColdTerms()
	in.added = [][]int{make([]int, len(in.keywords))}
	for i := 0; i < in.dataset.Corpus.Len(); i++ {
		if id := in.dataset.Corpus.At(i).ID; id >= in.nextID {
			in.nextID = id + 1
		}
	}
	return in, nil
}

// zipfBlock lists the keyword ranks of one block of sessions, in rank
// order: rank r appears round((n/(r+1))^skew) times, so the least
// popular keyword appears once and every keyword's share of the block is
// its Zipf probability up to rounding (ten keywords at skew 1.07: 33
// sessions, 12 of them the most popular query). Drawing each session's
// keyword independently would give every seed a different mix.
func zipfBlock(n int, skew float64) []int {
	var block []int
	for r := 0; r < n; r++ {
		c := int(math.Round(math.Pow(float64(n)/float64(r+1), skew)))
		for j := 0; j < c; j++ {
			block = append(block, r)
		}
	}
	return block
}

// pickColdTerms lists, per Table I keyword, the corpus terms a
// cold-query key may exclude ("prothymosin NOT histones"), in a seeded
// order. Each key is new to the nav-tree cache while its result set, kept
// only where it retains at least half the keyword's citations, stays
// close to the keyword's own — so cold and explore sessions differ in
// what the caches hold, not in tree size.
func (in *inputs) pickColdTerms() {
	reserved := map[string]bool{"and": true, "or": true, "not": true}
	for _, kw := range in.keywords {
		for _, tok := range corpus.Tokenize(kw) {
			reserved[tok] = true
		}
	}
	in.termDocs = make(map[string][]corpus.CitationID)
	corp := in.dataset.Corpus
	for i := 0; i < corp.Len(); i++ {
		c := corp.At(i)
		for _, t := range c.Terms {
			if !reserved[t] {
				in.termDocs[t] = append(in.termDocs[t], c.ID)
			}
		}
	}
	terms := make([]string, 0, len(in.termDocs))
	for t, ids := range in.termDocs {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		terms = append(terms, t)
	}
	sort.Strings(terms)
	r := rand.New(rand.NewPCG(in.seed, 0xc01d))
	in.coldTerms = make([][]string, len(in.keywords))
	for kw := range in.keywords {
		var ok []string
		for _, t := range terms {
			if 2*in.exclusion(kw, t) >= len(in.planted[kw]) {
				ok = append(ok, t)
			}
		}
		r.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
		in.coldTerms[kw] = ok
	}
}

// exclusion counts keyword kw's planted citations that lack term t.
func (in *inputs) exclusion(kw int, t string) int {
	a, b := in.planted[kw], in.termDocs[t]
	n, j := 0, 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j == len(b) || b[j] != id {
			n++
		}
	}
	return n
}

// batch returns ingest batch k: batchSize fresh citations, each a
// follow-up of a random planted result of a random Table I keyword (same
// concepts, authors and year), carrying the keyword's tokens plus a
// marker term unique to the batch.
func (in *inputs) batch(k int) []corpus.Citation {
	corp := in.dataset.Corpus
	for len(in.batches) <= k {
		n := len(in.batches)
		r := rand.New(rand.NewPCG(in.seed, 0xba7c4<<20|uint64(n)))
		counts := append([]int(nil), in.added[n]...)
		batch := make([]corpus.Citation, batchSize)
		for j := range batch {
			kw := r.IntN(len(in.keywords))
			tmpl, _ := corp.Get(in.planted[kw][r.IntN(len(in.planted[kw]))])
			batch[j] = corpus.Citation{
				ID:       in.nextID,
				Title:    fmt.Sprintf("%s: follow-up %d", in.keywords[kw], in.nextID),
				Authors:  append([]string(nil), tmpl.Authors...),
				Year:     tmpl.Year,
				Terms:    append(corpus.Tokenize(in.keywords[kw]), markerTerm(n)),
				Concepts: append([]hierarchy.ConceptID(nil), tmpl.Concepts...),
			}
			in.nextID++
			counts[kw]++
		}
		in.batches = append(in.batches, batch)
		in.added = append(in.added, counts)
	}
	return in.batches[k]
}

// markerTerm is the term only batch k's citations carry.
func markerTerm(k int) string { return "zzbatch" + strconv.Itoa(k) }

// plan returns session i's script. Sessions come in blocks of
// len(in.block), each a seeded permutation of zipfBlock's sessions. A
// session's user decisions depend on its block and its slot in
// zipfBlock, not on the seed, so every seed plays the same sessions in
// another order, with other cold keys and ingested batches: with a few hundred sessions in a run, drawing the decisions
// from the seed too moved the figures by more than the machine does. A
// cold-query session excludes a term its keyword has not excluded before
// in the run: the window's blocks 0, 1, … take terms from the front of
// the keyword's list and the warm-up's -1, -2, … from the back.
func (in *inputs) plan(i int) sessionPlan {
	n := len(in.block)
	block := i / n
	if i < 0 && i%n != 0 {
		block--
	}
	slot := rand.New(rand.NewPCG(in.seed, 0x0de7<<32|uint64(block))).Perm(n)[i-block*n]
	p := sessionPlan{idx: i, kw: in.block[slot], rng: rand.New(rand.NewPCG(uint64(block), 0x5e55<<32|uint64(slot)))}
	p.keywords = in.keywords[p.kw]
	if in.spec.cold {
		first := sort.SearchInts(in.block, p.kw)
		per := sort.SearchInts(in.block, p.kw+1) - first // the keyword's sessions per block
		terms := in.coldTerms[p.kw]
		t := block*per + slot - first
		p.exclude = terms[(t%len(terms)+len(terms))%len(terms)]
		p.keywords += " NOT " + p.exclude
	}
	return p
}

// expectedResults is the oracle's result count for p's query once the
// first epoch batches have been ingested.
func (in *inputs) expectedResults(p sessionPlan, epoch int) int {
	if p.exclude != "" {
		return in.exclusion(p.kw, p.exclude)
	}
	return len(in.planted[p.kw]) + in.added[epoch][p.kw]
}
