// Package workload synthesizes the experimental query workload of the
// paper's Table I: ten real PubMed keyword queries, each with a designated
// target concept "among the ones involved in the research fields closely
// related to the keyword query". Since MEDLINE itself is not available
// offline, the workload plants each query's result set into a synthetic
// corpus with the published characteristics as generation targets: result
// size, number of independent research areas, target-concept depth, target
// result count L(n), and target global count cnt(n).
package workload

import (
	"fmt"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/navtree"
	"bionav/internal/rng"
	"bionav/internal/store"
)

// QuerySpec describes one Table I row as generation targets.
type QuerySpec struct {
	Keyword      string // the PubMed query, e.g. "prothymosin"
	ResultSize   int    // # citations in the query result
	TargetLabel  string // Table I target concept, e.g. "Histones"
	TargetDepth  int    // MeSH level of the target concept
	TargetL      int    // L(n): target's citations within the query result
	TargetGlobal int64  // cnt(n): target's citations in all of MEDLINE
	FocusAreas   int    // independent research areas in the result set
	MeanConcepts int    // annotation density of the result citations
}

// TableI returns the paper's ten-query workload. Result sizes quoted in the
// paper's text (prothymosin 313, vardenafil 486) are exact; the remaining
// characteristics follow the paper's qualitative description — e.g. "ice
// nucleation" has a target high in the hierarchy with extremely low
// selectivity, "prothymosin" spans several research areas while
// "vardenafil" is narrowly targeted.
func TableI() []QuerySpec {
	return []QuerySpec{
		{Keyword: "LbetaT2", ResultSize: 211, TargetLabel: "Mice, Transgenic", TargetDepth: 3, TargetL: 48, TargetGlobal: 120000, FocusAreas: 3, MeanConcepts: 80},
		{Keyword: "melibiose permease", ResultSize: 67, TargetLabel: "Substrate Specificity", TargetDepth: 3, TargetL: 30, TargetGlobal: 45000, FocusAreas: 2, MeanConcepts: 70},
		{Keyword: "varenicline", ResultSize: 81, TargetLabel: "Nicotinic Agonists", TargetDepth: 5, TargetL: 25, TargetGlobal: 9000, FocusAreas: 2, MeanConcepts: 75},
		{Keyword: "Na+/I- symporter", ResultSize: 105, TargetLabel: "Perchloric Acid", TargetDepth: 5, TargetL: 16, TargetGlobal: 3000, FocusAreas: 3, MeanConcepts: 75},
		{Keyword: "prothymosin", ResultSize: 313, TargetLabel: "Histones", TargetDepth: 5, TargetL: 40, TargetGlobal: 24000, FocusAreas: 4, MeanConcepts: 90},
		{Keyword: "ice nucleation", ResultSize: 145, TargetLabel: "Plants, Genetically Modified", TargetDepth: 2, TargetL: 12, TargetGlobal: 2_500_000, FocusAreas: 3, MeanConcepts: 70},
		{Keyword: "vardenafil", ResultSize: 486, TargetLabel: "Phosphodiesterase Inhibitors", TargetDepth: 4, TargetL: 170, TargetGlobal: 30000, FocusAreas: 2, MeanConcepts: 65},
		{Keyword: "dyslexia genetics", ResultSize: 177, TargetLabel: "Polymorphism, Single Nucleotide", TargetDepth: 4, TargetL: 35, TargetGlobal: 55000, FocusAreas: 3, MeanConcepts: 80},
		{Keyword: "syntaxin 1A", ResultSize: 134, TargetLabel: "GABA Plasma Membrane Transport Proteins", TargetDepth: 6, TargetL: 12, TargetGlobal: 700, FocusAreas: 3, MeanConcepts: 85},
		{Keyword: "follistatin", ResultSize: 244, TargetLabel: "Follicle Stimulating Hormone", TargetDepth: 4, TargetL: 60, TargetGlobal: 28000, FocusAreas: 3, MeanConcepts: 80},
	}
}

// Query is one realized workload query.
type Query struct {
	Spec    QuerySpec
	Target  hierarchy.ConceptID
	Foci    []hierarchy.ConceptID // research-area focus concepts; Foci[0] == Target
	Results []corpus.CitationID   // the planted result set, in ID order
}

// Workload bundles the synthesized dataset with its realized queries.
type Workload struct {
	Dataset *store.Snapshot
	Queries []Query
}

// Config controls workload synthesis.
type Config struct {
	Seed           uint64
	HierarchyNodes int // synthetic MeSH size (paper: 48,000)
	TopLevel       int // root fan-out (default 112, the MeSH subcategories)
	Background     int // non-result citations in the corpus
	Specs          []QuerySpec
}

// DefaultConfig returns the full-scale configuration used by the
// experiment binaries; tests shrink it.
func DefaultConfig() Config {
	return Config{Seed: 2009, HierarchyNodes: 48000, Background: 3000, Specs: TableI()}
}

// SmallConfig shrinks the workload for fast tests and smoke-scale load
// runs while keeping every Table I query: result sizes are quartered
// (floors keep each target plantable) and annotation density is reduced.
func SmallConfig() Config {
	specs := TableI()
	for i := range specs {
		specs[i].ResultSize = (specs[i].ResultSize + 3) / 4
		if specs[i].TargetL > specs[i].ResultSize {
			specs[i].TargetL = specs[i].ResultSize / 2
		}
		if specs[i].TargetL < 2 {
			specs[i].TargetL = 2
		}
		specs[i].MeanConcepts = 30
	}
	return Config{Seed: 2009, HierarchyNodes: 6000, Background: 200, Specs: specs}
}

// Generate synthesizes the workload. The same Config always produces the
// identical workload.
func Generate(cfg Config) (*Workload, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("workload: no query specs")
	}
	if cfg.TopLevel <= 0 {
		cfg.TopLevel = 112
	}
	src := rng.New(cfg.Seed)
	tree := hierarchy.Generate(hierarchy.GenConfig{
		Seed: cfg.Seed, Nodes: cfg.HierarchyNodes, TopLevel: cfg.TopLevel, MaxDepth: 11,
	})

	targets, err := chooseTargets(tree, cfg.Specs, src.Split())
	if err != nil {
		return nil, err
	}
	relabels := make(map[hierarchy.ConceptID]string, len(targets))
	for i, spec := range cfg.Specs {
		// The label vocabulary can organically produce a Table I label
		// (e.g. "Histones"); rename such an incumbent out of the way so
		// the target's label stays unique.
		if incumbent, ok := tree.ByLabel(spec.TargetLabel); ok && incumbent != targets[i] {
			relabels[incumbent] = spec.TargetLabel + " (General)"
		}
		relabels[targets[i]] = spec.TargetLabel
	}
	tree, err = hierarchy.Relabel(tree, relabels)
	if err != nil {
		return nil, fmt.Errorf("workload: relabel targets: %w", err)
	}

	reserved := reservedTokens(cfg.Specs)
	gen := &generator{
		tree:     tree,
		src:      src,
		ann:      corpus.NewAnnotator(tree, src.Split()),
		reserved: reserved,
		nextID:   10_000_000,
	}

	// Background citations: realistic noise the index must see through.
	for i := 0; i < cfg.Background; i++ {
		gen.background()
	}

	// Planted query results.
	queries := make([]Query, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		ids, foci, err := gen.plantQuery(spec, targets[i])
		if err != nil {
			return nil, err
		}
		queries[i] = Query{Spec: spec, Target: targets[i], Foci: foci, Results: ids}
	}

	counts := corpus.SynthGlobalCounts(tree, src.Split())
	for i, spec := range cfg.Specs {
		counts[targets[i]] = spec.TargetGlobal
	}
	corp, err := corpus.New(tree, gen.citations, counts)
	if err != nil {
		return nil, fmt.Errorf("workload: assemble corpus: %w", err)
	}
	return &Workload{
		Dataset: &store.Snapshot{Tree: tree, Corpus: corp, Index: index.Build(corp)},
		Queries: queries,
	}, nil
}

// QueryByKeyword finds a realized query.
func (w *Workload) QueryByKeyword(keyword string) (*Query, bool) {
	for i := range w.Queries {
		if w.Queries[i].Spec.Keyword == keyword {
			return &w.Queries[i], true
		}
	}
	return nil, false
}

// NavTree builds the navigation tree for one workload query by running the
// query through the search index (exactly the on-line pipeline of §VII).
func (w *Workload) NavTree(q *Query) (*navtree.Tree, navtree.NodeID, error) {
	results := w.Dataset.Index.Search(q.Spec.Keyword)
	nav := navtree.Build(w.Dataset.Corpus, results)
	target, ok := nav.NodeByConcept(q.Target)
	if !ok {
		return nil, 0, fmt.Errorf("workload: target %q not in navigation tree of %q",
			q.Spec.TargetLabel, q.Spec.Keyword)
	}
	return nav, target, nil
}

// chooseTargets picks one concept per spec at the requested depth, pairwise
// distinct and non-ancestral so the queries' research areas are independent.
func chooseTargets(tree *hierarchy.Tree, specs []QuerySpec, src *rng.Source) ([]hierarchy.ConceptID, error) {
	byDepth := make(map[int][]hierarchy.ConceptID)
	for i := 1; i < tree.Len(); i++ {
		id := hierarchy.ConceptID(i)
		byDepth[tree.Node(id).Depth] = append(byDepth[tree.Node(id).Depth], id)
	}
	chosen := make([]hierarchy.ConceptID, 0, len(specs))
	for _, spec := range specs {
		cands := byDepth[spec.TargetDepth]
		if len(cands) == 0 {
			return nil, fmt.Errorf("workload: no concepts at depth %d for %q (grow the hierarchy)",
				spec.TargetDepth, spec.Keyword)
		}
		found := false
		for attempt := 0; attempt < 4*len(cands) && !found; attempt++ {
			c := cands[src.Intn(len(cands))]
			ok := true
			for _, prev := range chosen {
				if prev == c || tree.IsAncestor(prev, c) || tree.IsAncestor(c, prev) {
					ok = false
					break
				}
			}
			if ok {
				chosen = append(chosen, c)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("workload: cannot place target for %q at depth %d", spec.Keyword, spec.TargetDepth)
		}
	}
	return chosen, nil
}

// reservedTokens collects every keyword token; background citations must
// not contain them, so each keyword query returns exactly its planted set.
func reservedTokens(specs []QuerySpec) map[string]struct{} {
	out := make(map[string]struct{})
	for _, s := range specs {
		for _, tok := range corpus.Tokenize(s.Keyword) {
			out[tok] = struct{}{}
		}
	}
	return out
}
