package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
	"bionav/internal/obs"
)

// partition is one supernode of a k-partitioning, materialized for tests.
type partition struct {
	root    navtree.NodeID
	parent  int // partition holding root's navigation parent; -1 for the first
	members []navtree.NodeID
}

// kPartition runs the production k-partition of the component rooted at
// root and materializes it: partitions in order, each with its parent
// partition and its members in pre-order.
func kPartition(at *ActiveTree, root navtree.NodeID, k int) []partition {
	sc := kpPool.Get().(*kpScratch)
	defer kpPool.Put(sc)
	sc.load(at, root)
	sc.split(k)
	parts := make([]partition, len(sc.roots))
	members := make([]navtree.NodeID, len(sc.node))
	end := make([]int, len(parts)+1)
	for s := range sc.node {
		end[sc.part[s]+1]++
	}
	for i := range parts {
		end[i+1] += end[i]
	}
	for s, n := range sc.node {
		p := sc.part[s]
		members[end[p]] = n
		end[p]++
	}
	start := 0
	for i, r := range sc.roots {
		parts[i] = partition{root: sc.node[r], parent: -1, members: members[start:end[i]:end[i]]}
		if i > 0 {
			parts[i].parent = int(sc.part[sc.par[r]])
		}
		start = end[i]
	}
	return parts
}

// partitionCompTree k-partitions the component rooted at root and builds
// its reduced supernode tree, as HeuristicReducedOpt does for components
// larger than k.
func partitionCompTree(at *ActiveTree, root navtree.NodeID, k int) (*compTree, error) {
	sc := kpPool.Get().(*kpScratch)
	defer kpPool.Put(sc)
	sc.load(at, root)
	sc.split(k)
	return sc.compTree(at)
}

// bigActiveTree builds a generated-corpus navigation tree large enough to
// force real partitioning.
func bigActiveTree(t *testing.T, seed uint64, nResults int) *ActiveTree {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: seed, Nodes: 1200, TopLevel: 12, MaxDepth: 9})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: seed + 1, Citations: nResults, MeanConcepts: 40, FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewActiveTree(nav)
}

func checkPartitions(t *testing.T, at *ActiveTree, root navtree.NodeID, parts []partition, k int) {
	t.Helper()
	if len(parts) == 0 || len(parts) > k {
		t.Fatalf("got %d partitions, want 1..%d", len(parts), k)
	}
	if parts[0].root != root {
		t.Fatalf("first partition root = %d, want component root %d", parts[0].root, root)
	}
	members := at.Members(root)
	covered := make(map[navtree.NodeID]int)
	for i, p := range parts {
		if i > 0 && parts[i-1].root >= p.root {
			t.Fatalf("partitions not ordered by root: %d then %d", parts[i-1].root, p.root)
		}
		if len(p.members) == 0 {
			t.Fatalf("partition %d empty", i)
		}
		foundRoot := false
		for _, m := range p.members {
			if _, dup := covered[m]; dup {
				t.Fatalf("node %d in two partitions", m)
			}
			covered[m] = i
			if m == p.root {
				foundRoot = true
			}
		}
		if !foundRoot {
			t.Fatalf("partition %d does not contain its root", i)
		}
	}
	if len(covered) != len(members) {
		t.Fatalf("partitions cover %d nodes, component has %d", len(covered), len(members))
	}
	// Connectivity: every member except the partition root must have its
	// navigation parent in the same partition.
	for _, p := range parts {
		own := make(map[navtree.NodeID]bool, len(p.members))
		for _, m := range p.members {
			own[m] = true
		}
		for _, m := range p.members {
			if m != p.root && !own[at.Nav().Parent(m)] {
				t.Fatalf("partition rooted at %d: member %d disconnected", p.root, m)
			}
		}
	}
}

func TestKPartitionInvariants(t *testing.T) {
	at := bigActiveTree(t, 51, 200)
	root := at.Nav().Root()
	for _, k := range []int{2, 4, 10, 16} {
		parts := kPartition(at, root, k)
		checkPartitions(t, at, root, parts, k)
	}
}

func TestKPartitionSmallComponentIdentity(t *testing.T) {
	f := newPaperFixture(t)
	root := f.nodes["root"]
	n := f.at.ComponentSize(root)
	parts := kPartition(f.at, root, n+5)
	if len(parts) != n {
		t.Fatalf("got %d singleton partitions, want %d", len(parts), n)
	}
	for _, p := range parts {
		if len(p.members) != 1 {
			t.Fatalf("partition %v not singleton", p)
		}
	}
}

func TestKPartitionDeterministic(t *testing.T) {
	at1 := bigActiveTree(t, 52, 150)
	at2 := bigActiveTree(t, 52, 150)
	p1 := kPartition(at1, at1.Nav().Root(), 10)
	p2 := kPartition(at2, at2.Nav().Root(), 10)
	if len(p1) != len(p2) {
		t.Fatalf("partition counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].root != p2[i].root || len(p1[i].members) != len(p2[i].members) {
			t.Fatalf("partition %d differs", i)
		}
	}
}

func TestKPartitionOnSubComponent(t *testing.T) {
	at := bigActiveTree(t, 53, 200)
	root := at.Nav().Root()
	// Detach a child with a decent subtree and partition that component.
	var sub navtree.NodeID = -1
	for _, c := range at.Nav().Children(root) {
		if at.DistinctUnder(root, c) > 20 {
			sub = c
			break
		}
	}
	if sub == -1 {
		t.Skip("no large child in generated tree")
	}
	if _, err := at.Expand(root, []Edge{{Parent: root, Child: sub}}); err != nil {
		t.Fatal(err)
	}
	parts := kPartition(at, sub, 8)
	checkPartitions(t, at, sub, parts, 8)
}

func TestPartitionCompTreeStructure(t *testing.T) {
	at := bigActiveTree(t, 54, 200)
	root := at.Nav().Root()
	parts := kPartition(at, root, 10)
	ct, err := partitionCompTree(at, root, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ct.len() != len(parts) {
		t.Fatalf("compTree has %d nodes for %d partitions", ct.len(), len(parts))
	}
	if ct.Parent[0] != -1 {
		t.Fatal("compTree root parent wrong")
	}
	totalOwn := 0
	for i := 0; i < ct.len(); i++ {
		if i > 0 {
			if ct.Parent[i] < 0 || ct.Parent[i] >= i {
				t.Fatalf("node %d parent %d out of order", i, ct.Parent[i])
			}
			e := ct.NavEdge[i]
			if at.Nav().Parent(e.Child) != e.Parent {
				t.Fatalf("NavEdge %d is not a tree edge", i)
			}
			if e.Child != parts[i].root {
				t.Fatalf("NavEdge %d child %d != partition root %d", i, e.Child, parts[i].root)
			}
		}
		totalOwn += ct.Own[i]
	}
	// The union over all partitions must equal the component's distinct
	// count (the root component holds the full query result).
	full := ct.descMask[0]
	scratch := newBitset(at.Nav().DistinctTotal())
	if got, want := ct.distinct(full, scratch), at.Distinct(root); got != want {
		t.Fatalf("compTree distinct = %d, component distinct = %d", got, want)
	}
}

func TestIdentityCompTreeTooLarge(t *testing.T) {
	at := bigActiveTree(t, 55, 200)
	root := at.Nav().Root()
	members := at.Members(root)
	if len(members) <= maxOptNodes {
		t.Skip("component unexpectedly small")
	}
	if _, err := identityCompTree(at, root, members); err == nil {
		t.Fatal("identityCompTree accepted oversized component")
	}
}

// diffPartition checks kPartition and the reduced tree built from it
// against the oracle: the same partitions in the same order, with the
// same parents and member lists, and a bit-identical supernode tree.
func diffPartition(t *testing.T, at *ActiveTree, root navtree.NodeID, k int) {
	t.Helper()
	got, want := kPartition(at, root, k), oracleKPartition(at, root, k)
	if len(got) != len(want) {
		t.Fatalf("root %d k=%d: %d partitions, oracle %d", root, k, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.root != w.root || g.parent != w.parent || fmt.Sprint(g.members) != fmt.Sprint(w.members) {
			t.Fatalf("root %d k=%d partition %d:\n got  root %d parent %d members %v\n want root %d parent %d members %v",
				root, k, i, g.root, g.parent, g.members, w.root, w.parent, w.members)
		}
	}
	if len(want) == 0 || len(want) > maxOptNodes {
		return
	}
	gct, err := partitionCompTree(at, root, k)
	if err != nil {
		t.Fatal(err)
	}
	wct, err := oraclePartitionCompTree(at, want)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < wct.len(); i++ {
		if gct.Parent[i] != wct.Parent[i] || gct.NavEdge[i] != wct.NavEdge[i] || gct.Own[i] != wct.Own[i] ||
			math.Float64bits(gct.Score[i]) != math.Float64bits(wct.Score[i]) ||
			fmt.Sprint(gct.Bits[i]) != fmt.Sprint(wct.Bits[i]) || fmt.Sprint(gct.Children[i]) != fmt.Sprint(wct.Children[i]) {
			t.Fatalf("root %d k=%d: supernode %d differs from the oracle's", root, k, i)
		}
	}
	if gct.Sum != wct.Sum || fmt.Sprint(gct.descMask) != fmt.Sprint(wct.descMask) || fmt.Sprint(gct.pre) != fmt.Sprint(wct.pre) {
		t.Fatalf("root %d k=%d: reduced tree differs from the oracle's", root, k)
	}
}

// TestKPartitionMatchesOracle runs the flat-layout k-partition against the
// recursive oracle on generated trees, over the initial component and
// over every component left by a few heuristic EXPANDs.
func TestKPartitionMatchesOracle(t *testing.T) {
	pol := NewHeuristicReducedOpt()
	for seed := uint64(60); seed < 100; seed++ {
		tree := hierarchy.Generate(hierarchy.GenConfig{Seed: seed, Nodes: 300 + int(seed%7)*150, TopLevel: 4 + int(seed%9), MaxDepth: 4 + int(seed%6)})
		corp := corpus.Generate(tree, corpus.GenConfig{
			Seed: seed + 1, Citations: 40 + int(seed%5)*40, MeanConcepts: 10 + int(seed%4)*10, FirstID: 1, YearLo: 2000, YearHi: 2008,
		})
		at := NewActiveTree(navtree.Build(corp, corp.IDs()))
		for step := 0; step < 3; step++ {
			for _, r := range at.VisibleRoots() {
				for _, k := range []int{1, 2, 5, 10, 24} {
					diffPartition(t, at, r, k)
				}
			}
			root := at.VisibleRoots()[step%len(at.VisibleRoots())]
			if at.ComponentSize(root) < 2 {
				continue
			}
			cut, err := pol.ChooseCut(context.Background(), at, root)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := at.Expand(root, cut); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzKPartition drives the flat-layout k-partition differentially
// against the recursive oracle on generated trees, after a few EXPANDs.
// Seed corpus entries under testdata/fuzz/FuzzKPartition cover a bushy
// shallow tree, a deep narrow one after three EXPANDs, and k = 1 (the
// forced two-way split).
//
// Byte layout (missing bytes read as zero, so every input decodes):
//
//	data[0..1]     generator seed (little-endian)
//	data[2]        hierarchy concepts = 20 + 2·byte
//	data[3]        top-level categories = 1 + byte%12
//	data[4]        maximum depth = 2 + byte%9
//	data[5]        citations = 5 + byte
//	data[6]        mean concepts per citation = 2 + byte%40
//	data[7]        k = 1 + byte%24
//	data[8]        EXPANDs before partitioning = byte%4
//	2 bytes each   the EXPAND: which expandable component (byte mod their
//	               count), and a mask over its child edges (bit i%8 cuts
//	               child i; an empty selection cuts the first child)
//
// Every visible component is then partitioned with budget k.
func FuzzKPartition(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		seed := uint64(at(0)) | uint64(at(1))<<8
		nodes := 20 + 2*int(at(2))
		tree := hierarchy.Generate(hierarchy.GenConfig{
			Seed: seed, Nodes: nodes, TopLevel: 1 + int(at(3))%12, MaxDepth: 2 + int(at(4))%9,
		})
		corp := corpus.Generate(tree, corpus.GenConfig{
			Seed: seed + 1, Citations: 5 + int(at(5)), MeanConcepts: 2 + int(at(6))%40,
			FirstID: 1, YearLo: 2000, YearHi: 2008,
		})
		tr := NewActiveTree(navtree.Build(corp, corp.IDs()))
		k := 1 + int(at(7))%24
		pos := 9
		for e := 0; e < int(at(8))%4; e++ {
			var expandable []navtree.NodeID
			for _, r := range tr.VisibleRoots() {
				if tr.ComponentSize(r) > 1 {
					expandable = append(expandable, r)
				}
			}
			if len(expandable) == 0 {
				break
			}
			root := expandable[int(at(pos))%len(expandable)]
			mask := at(pos + 1)
			pos += 2
			var cut []Edge
			var first []Edge
			for i, c := range tr.Nav().Children(root) {
				if tr.ComponentOf(c) != root {
					continue
				}
				e := Edge{Parent: root, Child: c}
				if first == nil {
					first = []Edge{e}
				}
				if mask&(1<<(uint(i)%8)) != 0 {
					cut = append(cut, e)
				}
			}
			if len(cut) == 0 {
				cut = first
			}
			if _, err := tr.Expand(root, cut); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range tr.VisibleRoots() {
			diffPartition(t, tr, r, k)
		}
	})
}

// TestMembersParentBeforeChild pins the order Members returns: a
// pre-order of the component (each parent before its children, every
// subtree contiguous), which is not ascending NodeID order.
func TestMembersParentBeforeChild(t *testing.T) {
	at := bigActiveTree(t, 56, 200)
	root := at.Nav().Root()
	members := at.Members(root)
	if fmt.Sprint(members) != fmt.Sprint(at.Nav().Subtree(root)) {
		t.Fatal("initial component's members are not the navigation pre-order")
	}
	pos := make(map[navtree.NodeID]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	for i, m := range members {
		if i > 0 && pos[at.Nav().Parent(m)] >= i {
			t.Fatalf("member %d precedes its parent %d", m, at.Nav().Parent(m))
		}
	}
	// NodeIDs follow concept IDs, and a pre-order visits a first child's
	// whole subtree before its next sibling, whose ID can be smaller.
	if sort.IntsAreSorted(members) {
		t.Fatal("members ascend: the generated tree no longer shows that pre-order differs from NodeID order")
	}
}

// TestKPartitionSpan checks that a traced Heuristic-ReducedOpt cut opens
// a k_partition span under choose_cut, carrying the component size, the
// W sweeps run and the partitions made.
func TestKPartitionSpan(t *testing.T) {
	at := bigActiveTree(t, 57, 200)
	root := at.Nav().Root()
	span := obs.NewSpan("expand")
	if _, err := NewHeuristicReducedOpt().ChooseCut(obs.ContextWithSpan(context.Background(), span), at, root); err != nil {
		t.Fatal(err)
	}
	span.End()
	sum := span.Summary()
	if len(sum.Children) == 0 || sum.Children[0].Name != "choose_cut" {
		t.Fatalf("no choose_cut span: %+v", sum)
	}
	cc := sum.Children[0]
	if len(cc.Children) != 1 || cc.Children[0].Name != "k_partition" {
		t.Fatalf("choose_cut children = %+v, want one k_partition", cc.Children)
	}
	kp := cc.Children[0].Attrs
	if kp["members"] != int64(at.ComponentSize(root)) {
		t.Errorf("members = %v, want %d", kp["members"], at.ComponentSize(root))
	}
	if s, ok := kp["sweeps"].(int64); !ok || s < 1 {
		t.Errorf("sweeps = %v, want at least 1", kp["sweeps"])
	}
	if kp["partitions"] != cc.Attrs["reduced_nodes"] {
		t.Errorf("partitions = %v, choose_cut reduced_nodes = %v", kp["partitions"], cc.Attrs["reduced_nodes"])
	}
}
