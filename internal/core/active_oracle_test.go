package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
	"bionav/internal/rng"
)

// The component reads of ActiveTree as they were before Expand kept
// per-component aggregates: every query walks the component with
// navtree.Tree.PreOrder, pruning at the first node of another component.
// Only the full-subtree fast paths are gone, since the walks are the
// definitions they shortcut. Kept as the differential oracle of
// TestActiveTreeMatchesOracle and FuzzActiveTree.

func oracleVisibleRoots(at *ActiveTree) []navtree.NodeID {
	var out []navtree.NodeID
	for n := 0; n < at.nav.Len(); n++ {
		if at.IsVisible(n) {
			out = append(out, n)
		}
	}
	return out
}

func oracleMembers(at *ActiveTree, root navtree.NodeID) []navtree.NodeID {
	if !at.IsVisible(root) {
		return nil
	}
	var out []navtree.NodeID
	at.nav.PreOrder(root, func(n navtree.NodeID) bool {
		if at.ComponentOf(n) != root {
			return false
		}
		out = append(out, n)
		return true
	})
	return out
}

func oracleComponentSize(at *ActiveTree, root navtree.NodeID) int {
	n := 0
	at.nav.PreOrder(root, func(m navtree.NodeID) bool {
		if at.ComponentOf(m) != root {
			return false
		}
		n++
		return true
	})
	return n
}

func oracleDistinct(at *ActiveTree, root navtree.NodeID) int {
	return oracleDistinctUnder(at, root, root)
}

func oracleDistinctUnder(at *ActiveTree, root, n navtree.NodeID) int {
	u := newBitset(at.nav.DistinctTotal())
	at.nav.PreOrder(n, func(m navtree.NodeID) bool {
		if at.ComponentOf(m) != root {
			return false
		}
		u.orInto(at.nodeBits(m))
		return true
	})
	return u.count()
}

func oracleExploreProb(at *ActiveTree, root navtree.NodeID) float64 {
	if at.sumScores == 0 {
		return 0
	}
	s := 0.0
	at.nav.PreOrder(root, func(n navtree.NodeID) bool {
		if at.ComponentOf(n) != root {
			return false
		}
		s += at.scores[n]
		return true
	})
	p := s / at.sumScores
	if p > 1 {
		p = 1
	}
	return p
}

func oracleVisualize(at *ActiveTree) map[navtree.NodeID]*VisibleNode {
	vis := make(map[navtree.NodeID]*VisibleNode)
	for _, r := range oracleVisibleRoots(at) {
		vis[r] = &VisibleNode{
			Node:       r,
			Label:      at.nav.Label(r),
			Count:      oracleDistinct(at, r),
			Explore:    oracleExploreProb(at, r),
			Expandable: oracleComponentSize(at, r) > 1,
			Parent:     -1,
		}
	}
	for id, v := range vis {
		if id == at.nav.Root() {
			continue
		}
		p := at.ComponentOf(at.nav.Parent(id))
		v.Parent = p
		vis[p].Children = append(vis[p].Children, id)
	}
	for _, v := range vis {
		children := v.Children
		sort.Slice(children, func(i, j int) bool {
			a, b := vis[children[i]], vis[children[j]]
			if a.Explore != b.Explore {
				return a.Explore > b.Explore
			}
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Label < b.Label
		})
	}
	return vis
}

// diffAggregates checks at's per-tree aggregates against naive walks of
// its navigation tree: each node's bitset against its result indexes,
// and each node's subtree count, size and weight against the union of the
// result indexes over nav.Subtree, its length and its Σ (|res|+1).
func diffAggregates(t *testing.T, at *ActiveTree) {
	t.Helper()
	nav := at.nav
	for n := 0; n < nav.Len(); n++ {
		own := newBitset(nav.DistinctTotal())
		for _, idx := range nav.ResultIndexes(n) {
			own.set(int(idx))
		}
		if !slices.Equal(at.nodeBits(n), own) {
			t.Fatalf("nodeBits(%d) = %v, result indexes give %v", n, at.nodeBits(n), own)
		}
		sub := nav.Subtree(n)
		u := newBitset(nav.DistinctTotal())
		weight := 0
		for _, m := range sub {
			for _, idx := range nav.ResultIndexes(m) {
				u.set(int(idx))
			}
			weight += nav.NumResults(m) + 1
		}
		if got := int(at.subtreeCount[n]); got != u.count() {
			t.Fatalf("subtreeCount[%d] = %d, union over its subtree has %d", n, got, u.count())
		}
		if got := int(at.subtreeSize[n]); got != len(sub) {
			t.Fatalf("subtreeSize[%d] = %d, subtree has %d nodes", n, got, len(sub))
		}
		if got := int(at.subtreeWeight[n]); got != weight {
			t.Fatalf("subtreeWeight[%d] = %d, subtree weighs %d", n, got, weight)
		}
	}
}

// diffActive compares every component read of at with the oracle's,
// DistinctUnder on a few members of each component drawn from src, and
// every read on one node that is not a component root, if any.
func diffActive(t *testing.T, at *ActiveTree, src *rng.Source) {
	t.Helper()
	if err := at.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	roots := at.VisibleRoots()
	if want := oracleVisibleRoots(at); !slices.Equal(roots, want) {
		t.Fatalf("VisibleRoots = %v, oracle %v", roots, want)
	}
	for _, r := range roots {
		members := at.Members(r)
		if want := oracleMembers(at, r); !slices.Equal(members, want) {
			t.Fatalf("Members(%d) = %v, oracle %v", r, members, want)
		}
		if got, want := at.ComponentSize(r), oracleComponentSize(at, r); got != want {
			t.Fatalf("ComponentSize(%d) = %d, oracle %d", r, got, want)
		}
		if got, want := at.Distinct(r), oracleDistinct(at, r); got != want {
			t.Fatalf("Distinct(%d) = %d, oracle %d", r, got, want)
		}
		if got, want := at.ExploreProb(r), oracleExploreProb(at, r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExploreProb(%d) = %v, oracle %v", r, got, want)
		}
		for i := 0; i < 3; i++ {
			m := members[src.Intn(len(members))]
			if got, want := at.DistinctUnder(r, m), oracleDistinctUnder(at, r, m); got != want {
				t.Fatalf("DistinctUnder(%d, %d) = %d, oracle %d", r, m, got, want)
			}
		}
	}
	if len(roots) < at.nav.Len() {
		n := src.Intn(at.nav.Len())
		for at.IsVisible(n) {
			n = (n + 1) % at.nav.Len()
		}
		if at.Members(n) != nil || at.ComponentSize(n) != 0 || at.Distinct(n) != 0 || at.ExploreProb(n) != 0 {
			t.Fatalf("non-root %d: Members %v, size %d, count %d, pX %v; want nil, 0, 0, 0",
				n, at.Members(n), at.ComponentSize(n), at.Distinct(n), at.ExploreProb(n))
		}
	}
	if got, want := at.Visualize(), oracleVisualize(at); !reflect.DeepEqual(got, want) {
		t.Fatal("Visualize differs from the oracle's")
	}
}

// activeStep applies one random operation: a BACKTRACK with probability
// 1/4 when one is possible, otherwise a random valid cut of a random
// expandable component, one time in eight first offered with an edge
// repeated, which must fail. It reports false when neither applies.
func activeStep(t *testing.T, at *ActiveTree, src *rng.Source) bool {
	t.Helper()
	if at.CanBacktrack() && src.Intn(4) == 0 {
		if err := at.Backtrack(); err != nil {
			t.Fatal(err)
		}
		return true
	}
	var expandable []navtree.NodeID
	for _, r := range oracleVisibleRoots(at) {
		if oracleComponentSize(at, r) > 1 {
			expandable = append(expandable, r)
		}
	}
	if len(expandable) == 0 {
		if !at.CanBacktrack() {
			return false
		}
		if err := at.Backtrack(); err != nil {
			t.Fatal(err)
		}
		return true
	}
	root := expandable[src.Intn(len(expandable))]
	cut := randomValidCut(at, root, src)
	// A cut naming an edge twice is not a set (Definition 3): Expand must
	// reject it before touching any state, which the next diffActive checks.
	if src.Intn(8) == 0 {
		bad := append(slices.Clone(cut), cut[src.Intn(len(cut))])
		if _, err := at.Expand(root, bad); err == nil {
			t.Fatalf("Expand(%d) accepted a cut with a repeated edge", root)
		}
	}
	if _, err := at.Expand(root, cut); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestActiveTreeMatchesOracle drives generated trees and a
// prothymosin-scale tree (the Table I shape of benchTree) through random
// valid cuts and BACKTRACKs, comparing every component read with the
// PreOrder oracle after each operation.
func TestActiveTreeMatchesOracle(t *testing.T) {
	type tc struct {
		name  string
		at    *ActiveTree
		steps int
	}
	var cases []tc
	for seed := uint64(1); seed <= 8; seed++ {
		cases = append(cases, tc{"generated", bigActiveTree(t, 300+seed, 40+20*int(seed)), 120})
	}
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 91, Nodes: 8000, TopLevel: 112, MaxDepth: 11})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 92, Citations: 313, MeanConcepts: 90, FirstID: 1, YearLo: 1990, YearHi: 2008,
	})
	cases = append(cases, tc{"prothymosin-scale", NewActiveTree(navtree.Build(corp, corp.IDs())), 60})
	for i, c := range cases {
		src := rng.New(uint64(7000 + i))
		diffAggregates(t, c.at)
		diffActive(t, c.at, src)
		for step := 0; step < c.steps && activeStep(t, c.at, src); step++ {
			diffActive(t, c.at, src)
		}
	}
}

// FuzzActiveTree drives a generated active tree through a fuzzed sequence
// of EXPANDs and BACKTRACKs, comparing every component read with the
// PreOrder oracle after each one. Seed corpus entries under
// testdata/fuzz/FuzzActiveTree cover a bushy shallow tree, a deep narrow
// one, and a run of thirty operations.
//
// Byte layout (missing bytes read as zero, so every input decodes):
//
//	data[0..1]     generator seed (little-endian)
//	data[2]        hierarchy concepts = 20 + 2·byte
//	data[3]        top-level categories = 1 + byte%12
//	data[4]        maximum depth = 2 + byte%9
//	data[5]        citations = 5 + byte
//	data[6]        mean concepts per citation = 2 + byte%40
//	1 byte each    one operation, seeding the random source of activeStep
func FuzzActiveTree(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		seed := uint64(at(0)) | uint64(at(1))<<8
		tree := hierarchy.Generate(hierarchy.GenConfig{
			Seed: seed, Nodes: 20 + 2*int(at(2)), TopLevel: 1 + int(at(3))%12, MaxDepth: 2 + int(at(4))%9,
		})
		corp := corpus.Generate(tree, corpus.GenConfig{
			Seed: seed + 1, Citations: 5 + int(at(5)), MeanConcepts: 2 + int(at(6))%40,
			FirstID: 1, YearLo: 2000, YearHi: 2008,
		})
		tr := NewActiveTree(navtree.Build(corp, corp.IDs()))
		diffAggregates(t, tr)
		diffActive(t, tr, rng.New(seed))
		for i := 7; i < len(data); i++ {
			src := rng.New(uint64(data[i]) + 1)
			if !activeStep(t, tr, src) {
				break
			}
			diffActive(t, tr, src)
		}
	})
}
