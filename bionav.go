package bionav

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/rank"
	"bionav/internal/store"
)

// Re-exported identifier and record types. The implementations live in
// internal packages; these aliases are the supported public surface.
type (
	// ConceptID identifies a concept in the hierarchy.
	ConceptID = hierarchy.ConceptID
	// CitationID is a PMID-like citation identifier.
	CitationID = corpus.CitationID
	// Citation is one bibliographic record.
	Citation = corpus.Citation
	// Dataset bundles hierarchy, corpus and search index.
	Dataset = store.Snapshot
	// Cost is the paper's navigation-cost breakdown.
	Cost = navigate.Cost
	// Policy chooses the EdgeCut applied by each EXPAND.
	Policy = core.Policy
	// CostModel carries the §III–IV cost-model constants.
	CostModel = core.CostModel
)

// HeuristicPolicy returns the paper's production expansion policy,
// Heuristic-ReducedOpt with reduced-tree budget k (the paper uses 10) and
// the default cost model.
func HeuristicPolicy(k int) Policy {
	if k <= 0 {
		k = 10
	}
	return &core.HeuristicReducedOpt{K: k, Model: core.DefaultCostModel()}
}

// CachedHeuristicPolicy returns Heuristic-ReducedOpt with the §VI-B plan
// cache: follow-up expansions of components created by earlier cuts are
// answered from the retained Opt-EdgeCut memo. The plans are per-session
// state, so an Engine set to this policy gives each Navigation its own
// copy with the same K and cost model.
func CachedHeuristicPolicy(k int) Policy {
	if k <= 0 {
		k = 10
	}
	return &core.CachedHeuristic{K: k, Model: core.DefaultCostModel()}
}

// StaticPolicy returns the static-navigation baseline: every EXPAND
// reveals all children of the expanded concept.
func StaticPolicy() Policy { return core.StaticAll{} }

// TopKPolicy returns the GoPubMed-style baseline revealing the K
// highest-count children per EXPAND.
func TopKPolicy(k int) Policy { return core.StaticTopK{K: k} }

// DefaultCostModel returns the cost-model constants used in the paper's
// experiments (K = 1, thresholds 50/10, entropy estimator on).
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// Engine serves keyword queries and navigations over one dataset. An
// Engine is safe for concurrent use; each Navigation is single-user state.
type Engine struct {
	ds     *Dataset
	policy Policy
	scorer *rank.Scorer
}

// NewEngine wraps a dataset with the default Heuristic-ReducedOpt policy
// and a BM25 relevance scorer for SHOWRESULTS ordering.
func NewEngine(ds *Dataset) *Engine {
	return &Engine{
		ds:     ds,
		policy: HeuristicPolicy(10),
		scorer: rank.NewScorer(ds.Corpus, ds.Index),
	}
}

// Open loads a dataset previously saved with Engine.Save (or written by
// cmd/bionav-gen) and wraps it in an Engine.
func Open(dir string) (*Engine, error) {
	ds, err := store.LoadDataset(dir)
	if err != nil {
		return nil, err
	}
	return NewEngine(ds), nil
}

// Save persists the engine's dataset into a BioNav database directory.
func (e *Engine) Save(dir string) error { return e.ds.Save(dir) }

// Dataset exposes the underlying dataset.
func (e *Engine) Dataset() *Dataset { return e.ds }

// SetPolicy overrides the expansion policy used by future Navigations.
func (e *Engine) SetPolicy(p Policy) { e.policy = p }

// Search returns the citation IDs matching a keyword query. Plain terms
// combine conjunctively; uppercase AND / OR / NOT and parentheses select
// PubMed-style boolean retrieval.
func (e *Engine) Search(keywords string) []CitationID {
	return e.ds.Index.SearchQuery(keywords)
}

// Citation resolves a citation ID.
func (e *Engine) Citation(id CitationID) (*Citation, bool) {
	return e.ds.Corpus.Get(id)
}

// Navigate runs a keyword query and starts a navigation over its results.
// It fails if no citation matches.
func (e *Engine) Navigate(keywords string) (*Navigation, error) {
	results := e.Search(keywords)
	if len(results) == 0 {
		return nil, fmt.Errorf("bionav: no citations match %q", keywords)
	}
	return e.NavigateResults(keywords, results)
}

// NavigateResults starts a navigation over an explicit result set, which
// lets callers combine BioNav with their own retrieval.
func (e *Engine) NavigateResults(keywords string, results []CitationID) (*Navigation, error) {
	nav := navtree.Build(e.ds.Corpus, results)
	if nav.DistinctTotal() == 0 {
		return nil, fmt.Errorf("bionav: none of the %d result IDs exist in the corpus", len(results))
	}
	return &Navigation{
		engine:   e,
		keywords: keywords,
		nav:      nav,
		session:  navigate.NewSession(nav, e.sessionPolicy()),
	}, nil
}

// sessionPolicy returns the policy a new Navigation runs: the engine's
// own, shared, except for a CachedHeuristic, whose plans belong to one
// navigation and so are started afresh for each.
func (e *Engine) sessionPolicy() Policy {
	if c, ok := e.policy.(*core.CachedHeuristic); ok {
		return &core.CachedHeuristic{K: c.K, Model: c.Model}
	}
	return e.policy
}

// Navigation is one user's drill-down over a query result: a thin facade
// over the active tree and the session cost accounting.
type Navigation struct {
	engine   *Engine
	keywords string
	nav      *navtree.Tree
	session  *navigate.Session
}

// Keywords returns the query this navigation was started from.
func (n *Navigation) Keywords() string { return n.keywords }

// Results reports the number of distinct citations under navigation.
func (n *Navigation) Results() int { return n.nav.DistinctTotal() }

// Root returns the root node ID (always 0).
func (n *Navigation) Root() int { return n.nav.Root() }

// Cost returns the navigation cost accumulated so far.
func (n *Navigation) Cost() Cost { return n.session.Cost() }

// Expand performs an EXPAND on the given visible node, returning the newly
// revealed node IDs.
func (n *Navigation) Expand(node int) ([]int, error) {
	return n.session.Expand(node)
}

// Backtrack undoes the most recent EXPAND.
func (n *Navigation) Backtrack() error { return n.session.Backtrack() }

// ShowResults lists the citations of a visible node's component, ordered
// by BM25 relevance to the navigation's query (the "simple ranking
// techniques" of §I), with recency as the tiebreak.
func (n *Navigation) ShowResults(node int) ([]*Citation, error) {
	ids, err := n.session.ShowResults(node)
	if err != nil {
		return nil, err
	}
	ranked := n.engine.scorer.Rank(n.keywords, ids)
	out := make([]*Citation, 0, len(ranked))
	for _, r := range ranked {
		if cit, ok := n.engine.ds.Corpus.Get(r.ID); ok {
			out = append(out, cit)
		}
	}
	return out, nil
}

// Node is one visible row of the navigation (Definition 5's visualization).
type Node struct {
	ID         int
	Label      string
	TreeID     string // MeSH-style positional identifier
	Count      int    // distinct citations in the node's component
	Depth      int    // indentation level in the visible tree
	Expandable bool
}

// Visible returns the currently visible tree as a flattened pre-order list
// with Depth for indentation; children are in ranked order.
func (n *Navigation) Visible() []Node {
	vis := n.session.Visualize()
	var out []Node
	var walk func(id navtree.NodeID, depth int)
	walk = func(id navtree.NodeID, depth int) {
		v := vis[id]
		out = append(out, Node{
			ID:         id,
			Label:      v.Label,
			TreeID:     n.engine.ds.Tree.Node(n.nav.Concept(id)).TreeID,
			Count:      v.Count,
			Depth:      depth,
			Expandable: v.Expandable,
		})
		for _, c := range v.Children {
			walk(c, depth+1)
		}
	}
	walk(n.nav.Root(), 0)
	return out
}

// NodeByLabel resolves a concept label to its visible or hidden navigation
// node, e.g. to check whether a concept of interest has been revealed yet.
func (n *Navigation) NodeByLabel(label string) (int, bool) {
	c, ok := n.engine.ds.Tree.ByLabel(label)
	if !ok {
		return 0, false
	}
	return n.nav.NodeByConcept(c)
}

// IsVisible reports whether a node is currently revealed.
func (n *Navigation) IsVisible(node int) bool {
	return node >= 0 && node < n.nav.Len() && n.session.Active().IsVisible(node)
}

// ComponentOf returns the visible component root whose I-set contains
// node — the concept a user would expand next to surface a hidden node.
func (n *Navigation) ComponentOf(node int) (int, bool) {
	if node < 0 || node >= n.nav.Len() {
		return 0, false
	}
	return n.session.Active().ComponentOf(node), true
}

// Export writes the navigation's action history as JSON — a shareable,
// replayable session (see Engine.ReplayNavigation).
func (n *Navigation) Export(w io.Writer) error { return n.session.Export(w) }

// ReplayNavigation re-runs keywords and restores an exported session onto
// the fresh result set: the recorded EdgeCuts are applied verbatim, so the
// restored view matches the original even if policies have changed.
func (e *Engine) ReplayNavigation(keywords string, r io.Reader) (*Navigation, error) {
	results := e.Search(keywords)
	if len(results) == 0 {
		return nil, fmt.Errorf("bionav: no citations match %q", keywords)
	}
	nav := navtree.Build(e.ds.Corpus, results)
	session, err := navigate.Replay(nav, e.sessionPolicy(), r)
	if err != nil {
		return nil, err
	}
	return &Navigation{engine: e, keywords: keywords, nav: nav, session: session}, nil
}

// Render writes the visible tree in the style of the paper's Fig. 2:
//
//	MESH (313)
//	  Amino Acids, Peptides, and Proteins (310) >>>
//	  ...
func (n *Navigation) Render(w io.Writer) error {
	for _, row := range n.Visible() {
		marker := ""
		if row.Expandable {
			marker = " >>>"
		}
		if _, err := fmt.Fprintf(w, "%s%s (%d)%s\n",
			strings.Repeat("  ", row.Depth), row.Label, row.Count, marker); err != nil {
			return err
		}
	}
	return nil
}

// Suggestions returns up to max keyword terms from the corpus ordered by
// descending document frequency — handy for demos and CLI tab-completion.
func (e *Engine) Suggestions(max int) []string {
	type tf struct {
		term string
		df   int
	}
	var all []tf
	seen := map[string]bool{}
	for i := 0; i < e.ds.Corpus.Len(); i++ {
		for _, t := range e.ds.Corpus.At(i).Terms {
			if len(t) < 4 || stopwords[t] || seen[t] {
				continue
			}
			seen[t] = true
			all = append(all, tf{t, e.ds.Index.DocFreq(t)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].term < all[j].term
	})
	if max > len(all) {
		max = len(all)
	}
	out := make([]string, max)
	for i := range out {
		out[i] = all[i].term
	}
	return out
}

// Import builds a dataset from real NLM data files: a MeSH descriptor
// file in ASCII exchange format (d2008.bin-style MH/MN records) and a
// MEDLINE citation set in PubmedArticleSet XML (what eutils EFetch
// returns). Per-concept global counts default to the counts observed in
// the imported corpus, which keeps the EXPLORE-probability selectivities
// meaningful for self-contained datasets. The returned stats report what
// the citation import kept and dropped.
func Import(mesh, medline io.Reader) (*Dataset, ImportStats, error) {
	tree, err := hierarchy.ParseMeSHASCII(mesh)
	if err != nil {
		return nil, ImportStats{}, err
	}
	cits, stats, err := corpus.ParseMedlineXML(medline, tree)
	if err != nil {
		return nil, stats, err
	}
	if len(cits) == 0 {
		return nil, stats, fmt.Errorf("bionav: no citations imported")
	}
	corp, err := corpus.New(tree, cits, make([]int64, tree.Len()))
	if err != nil {
		return nil, stats, err
	}
	return &Dataset{Tree: tree, Corpus: corp, Index: index.Build(corp)}, stats, nil
}

// ImportStats is the citation-import report of Import.
type ImportStats = corpus.ImportStats

// stopwords are boilerplate tokens of synthetic titles, excluded from
// Suggestions so demos propose meaningful query terms.
var stopwords = map[string]bool{
	"role": true, "study": true, "effects": true, "models": true,
	"during": true, "controlled": true, "vivo": true, "molecular": true,
	"mechanisms": true, "expression": true, "characterization": true,
	"regulation": true, "dependent": true, "observations": true,
	"context": true, "type": true, "related": true, "structures": true,
}

// DemoConfig sizes GenerateDemo's synthetic dataset. Zero values select
// laptop-friendly defaults.
type DemoConfig struct {
	Seed         uint64
	Concepts     int // hierarchy size (default 6,000)
	Citations    int // corpus size (default 2,000)
	MeanConcepts int // annotations per citation (default 40)
}

// GenerateDemo builds a self-contained synthetic dataset: a MeSH-like
// hierarchy, an annotated citation corpus, and a keyword index. The same
// config always produces the identical dataset.
func GenerateDemo(cfg DemoConfig) *Dataset {
	if cfg.Seed == 0 {
		cfg.Seed = 2009
	}
	if cfg.Concepts == 0 {
		cfg.Concepts = 6000
	}
	if cfg.Citations == 0 {
		cfg.Citations = 2000
	}
	if cfg.MeanConcepts == 0 {
		cfg.MeanConcepts = 40
	}
	if cfg.Concepts < 20 {
		cfg.Concepts = 20
	}
	// MeSH-scale datasets get the ~112 subcategory roots of the real
	// hierarchy; small demos scale the top level down so the tree keeps
	// depth.
	topLevel := 112
	if cfg.Concepts < 4*topLevel {
		topLevel = cfg.Concepts / 4
	}
	tree := hierarchy.Generate(hierarchy.GenConfig{
		Seed: cfg.Seed, Nodes: cfg.Concepts, TopLevel: topLevel, MaxDepth: 11,
	})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: cfg.Seed + 1, Citations: cfg.Citations, MeanConcepts: cfg.MeanConcepts,
		FirstID: 10_000_000, YearLo: 1975, YearHi: 2008,
	})
	return &Dataset{Tree: tree, Corpus: corp, Index: index.Build(corp)}
}
