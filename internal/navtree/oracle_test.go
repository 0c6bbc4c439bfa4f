package navtree

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// oracleTree is the navigation tree as the original map-based build laid
// it out: the reference Build is checked against.
type oracleTree struct {
	nodes     []oracleNode
	byConcept map[hierarchy.ConceptID]NodeID
	distinct  int
	resultIdx map[corpus.CitationID]int
	nodeIdxs  [][]int32
}

// oracleNode is one node of the oracle's tree, one struct per node as
// the original build kept them.
type oracleNode struct {
	Concept  hierarchy.ConceptID
	Parent   NodeID // -1 for the root
	Children []NodeID
	Results  []corpus.CitationID
	Depth    int
}

// oracleBuild is the original serial build: per-concept citation lists in
// maps, a sort over the attached concepts, and a map probe per ancestor
// step. It returns its layout instead of a *Tree.
func oracleBuild(corp *corpus.Corpus, results []corpus.CitationID) *oracleTree {
	h := corp.Tree()

	type kept struct {
		id       corpus.CitationID
		concepts []hierarchy.ConceptID
	}
	seen := make(map[corpus.CitationID]struct{}, len(results))
	resultIdx := make(map[corpus.CitationID]int, len(results))
	order := make([]kept, 0, len(results))
	for _, id := range results {
		if _, dup := seen[id]; dup {
			continue
		}
		concepts := corp.Concepts(id)
		if concepts == nil {
			continue
		}
		seen[id] = struct{}{}
		resultIdx[id] = len(resultIdx)
		order = append(order, kept{id: id, concepts: concepts})
	}

	attached := make(map[hierarchy.ConceptID][]corpus.CitationID)
	attachedIdx := make(map[hierarchy.ConceptID][]int32)
	for idx, k := range order {
		for _, c := range k.concepts {
			attached[c] = append(attached[c], k.id)
			attachedIdx[c] = append(attachedIdx[c], int32(idx))
		}
	}

	t := &oracleTree{
		byConcept: make(map[hierarchy.ConceptID]NodeID, len(attached)+1),
		distinct:  len(resultIdx),
		resultIdx: resultIdx,
	}
	t.nodes = append(t.nodes, oracleNode{Concept: h.Root(), Parent: -1})
	t.nodeIdxs = append(t.nodeIdxs, nil)
	t.byConcept[h.Root()] = 0

	conceptIDs := make([]hierarchy.ConceptID, 0, len(attached))
	for c := range attached {
		conceptIDs = append(conceptIDs, c)
	}
	sort.Slice(conceptIDs, func(i, j int) bool { return conceptIDs[i] < conceptIDs[j] })

	for _, c := range conceptIDs {
		parentNode := t.findKeptAncestor(h, c)
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, oracleNode{
			Concept: c,
			Parent:  parentNode,
			Results: attached[c],
			Depth:   t.nodes[parentNode].Depth + 1,
		})
		t.nodeIdxs = append(t.nodeIdxs, attachedIdx[c])
		t.nodes[parentNode].Children = append(t.nodes[parentNode].Children, id)
		t.byConcept[c] = id
	}
	return t
}

func (t *oracleTree) findKeptAncestor(h *hierarchy.Tree, c hierarchy.ConceptID) NodeID {
	for cur := h.Parent(c); ; cur = h.Parent(cur) {
		if id, ok := t.byConcept[cur]; ok {
			return id
		}
	}
}

// diffOracle reports every way got departs from the oracle's tree for the
// same input. Slices compare with reflect.DeepEqual, so a nil list and an
// empty one differ.
func diffOracle(corp *corpus.Corpus, results []corpus.CitationID, got *Tree, want *oracleTree) error {
	if err := got.Validate(); err != nil {
		return err
	}
	if got.Len() != len(want.nodes) {
		return fmt.Errorf("Len = %d, want %d", got.Len(), len(want.nodes))
	}
	attachments := 0
	for i := range want.nodes {
		w := &want.nodes[i]
		attachments += len(w.Results)
		switch {
		case got.Concept(i) != w.Concept:
			return fmt.Errorf("node %d: Concept = %d, want %d", i, got.Concept(i), w.Concept)
		case got.Parent(i) != w.Parent:
			return fmt.Errorf("node %d: Parent = %d, want %d", i, got.Parent(i), w.Parent)
		case !reflect.DeepEqual(got.Children(i), w.Children):
			return fmt.Errorf("node %d: Children = %#v, want %#v", i, got.Children(i), w.Children)
		case !reflect.DeepEqual(got.Results(i), w.Results):
			return fmt.Errorf("node %d: Results = %#v, want %#v", i, got.Results(i), w.Results)
		case got.NumResults(i) != len(w.Results):
			return fmt.Errorf("node %d: NumResults = %d, want %d", i, got.NumResults(i), len(w.Results))
		case got.Depth(i) != w.Depth:
			return fmt.Errorf("node %d: Depth = %d, want %d", i, got.Depth(i), w.Depth)
		case !reflect.DeepEqual(got.ResultIndexes(i), want.nodeIdxs[i]):
			return fmt.Errorf("node %d: ResultIndexes = %#v, want %#v", i, got.ResultIndexes(i), want.nodeIdxs[i])
		}
	}
	for c := hierarchy.ConceptID(-1); int(c) <= corp.Tree().Len(); c++ {
		gid, gok := got.NodeByConcept(c)
		wid, wok := want.byConcept[c]
		if gid != wid || gok != wok {
			return fmt.Errorf("NodeByConcept(%d) = %d,%v, want %d,%v", c, gid, gok, wid, wok)
		}
	}
	if got.Attachments() != attachments {
		return fmt.Errorf("Attachments = %d, want %d", got.Attachments(), attachments)
	}
	if got.DistinctTotal() != want.distinct {
		return fmt.Errorf("DistinctTotal = %d, want %d", got.DistinctTotal(), want.distinct)
	}
	return nil
}

// TestBuildMatchesOracle checks the flat build against the original
// map-based one, node for node, over generated hierarchies × corpora ×
// result lists with duplicates, unknown IDs and no results at all.
func TestBuildMatchesOracle(t *testing.T) {
	hierarchies := []hierarchy.GenConfig{
		{Seed: 41, Nodes: 900, TopLevel: 9, MaxDepth: 8},
		{Seed: 7, Nodes: 120, TopLevel: 1, MaxDepth: 12},
		{Seed: 3, Nodes: 3000, TopLevel: 40, MaxDepth: 5},
	}
	corpora := []corpus.GenConfig{
		{Seed: 42, Citations: 400, MeanConcepts: 25, FirstID: 1, YearLo: 2000, YearHi: 2008},
		{Seed: 5, Citations: 60, MeanConcepts: 3, FirstID: 500, YearLo: 2000, YearHi: 2008},
	}
	for _, hc := range hierarchies {
		tree := hierarchy.Generate(hc)
		for _, cc := range corpora {
			corp := corpus.Generate(tree, cc)
			ids := corp.IDs()
			var reversed []corpus.CitationID
			for i := len(ids) - 1; i >= 0; i -= 3 {
				reversed = append(reversed, ids[i])
			}
			lists := []struct {
				name    string
				results []corpus.CitationID
			}{
				{"all", ids},
				{"duplicates", append(append([]corpus.CitationID(nil), ids...), ids[:len(ids)/4]...)},
				{"reversed", reversed},
				{"unknown", []corpus.CitationID{ids[3], -7, ids[1], 999_999, ids[3], 0, ids[2]}},
				{"one", ids[len(ids)/2 : len(ids)/2+1]},
				{"empty", []corpus.CitationID{}},
				{"nil", nil},
			}
			for _, l := range lists {
				t.Run(fmt.Sprintf("h%d/c%d/%s", hc.Seed, cc.Seed, l.name), func(t *testing.T) {
					t.Parallel() // concurrent builds share the scratch pool
					if err := diffOracle(corp, l.results, Build(corp, l.results), oracleBuild(corp, l.results)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// FuzzBuild checks Build against the oracle on hierarchies, annotations
// and result lists decoded from the input. Unlike generated corpora,
// decoded citations can list a concept twice or carry no concepts at all.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		b := hierarchy.NewBuilder("root")
		concepts := 2 + next()%40
		for i := 1; i < concepts; i++ {
			b.Add(hierarchy.ConceptID(next()%i), fmt.Sprintf("c%d", i))
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cits := make([]corpus.Citation, next()%20)
		for i := range cits {
			cits[i].ID = corpus.CitationID(i + 1)
			n := next() % 7
			if n == 6 {
				continue // no annotations: Build treats it as unknown
			}
			cits[i].Concepts = make([]hierarchy.ConceptID, n)
			for j := range cits[i].Concepts {
				cits[i].Concepts[j] = hierarchy.ConceptID(1 + next()%(concepts-1))
			}
		}
		corp, err := corpus.New(tree, cits, make([]int64, tree.Len()))
		if err != nil {
			t.Fatal(err)
		}
		var results []corpus.CitationID
		for len(data) > 0 {
			results = append(results, corpus.CitationID(next()%(len(cits)+3)))
		}
		if err := diffOracle(corp, results, Build(corp, results), oracleBuild(corp, results)); err != nil {
			t.Fatal(err)
		}
	})
}
