package core

import (
	"fmt"
	"sort"

	"bionav/internal/navtree"
)

// The k-partition and reduced-tree construction as they were before the
// flat-layout sweep of partition.go: a recursive sweep per threshold that
// allocates and sorts every node's child list, then map-based partition
// collection. Kept unchanged as the differential oracle for kPartition
// and FuzzKPartition.

// oracleKPartition splits the component rooted at root into at most k
// connected partitions, ordered root-partition first, then by partition
// root ascending (degenerate components: one partition per member, in
// Members order).
func oracleKPartition(at *ActiveTree, root navtree.NodeID, k int) []partition {
	members := at.Members(root)
	if k < 1 {
		k = 1
	}
	if len(members) <= k {
		parts := make([]partition, len(members))
		for i, m := range members {
			parts[i] = partition{root: m, members: []navtree.NodeID{m}}
		}
		return oracleParents(at, parts)
	}
	total := 0.0
	for _, m := range members {
		total += oracleWeight(at, m)
	}

	w := total / float64(k)
	for {
		roots := oraclePartitionRoots(at, root, w)
		if len(roots) <= k {
			if len(roots) == 1 {
				roots = append(roots, oracleHeaviestChildSubtree(at, root))
			}
			return oracleParents(at, oracleCollectPartitions(at, root, roots))
		}
		w *= 1.5
	}
}

func oracleWeight(at *ActiveTree, n navtree.NodeID) float64 {
	return float64(at.nav.NumResults(n)) + 1
}

func oraclePartitionRoots(at *ActiveTree, root navtree.NodeID, w float64) []navtree.NodeID {
	roots := []navtree.NodeID{root}
	oracleSweepWeight(at, root, root, w, &roots)
	return roots
}

func oracleSweepWeight(at *ActiveTree, compRoot, n navtree.NodeID, w float64, roots *[]navtree.NodeID) float64 {
	type kid struct {
		root   navtree.NodeID
		weight float64
	}
	own := oracleWeight(at, n)
	var kids []kid
	acc := own
	for _, c := range at.nav.Children(n) {
		if at.compOf[c] != compRoot {
			continue
		}
		kw := oracleSweepWeight(at, compRoot, c, w, roots)
		kids = append(kids, kid{root: c, weight: kw})
		acc += kw
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].weight != kids[j].weight {
			return kids[i].weight > kids[j].weight
		}
		return kids[i].root < kids[j].root
	})
	for _, kd := range kids {
		if acc <= w {
			break
		}
		*roots = append(*roots, kd.root)
		acc -= kd.weight
	}
	return acc
}

func oracleHeaviestChildSubtree(at *ActiveTree, root navtree.NodeID) navtree.NodeID {
	var best navtree.NodeID = -1
	bestWeight := -1.0
	for _, c := range at.nav.Children(root) {
		if at.compOf[c] != root {
			continue
		}
		w := 0.0
		at.nav.PreOrder(c, func(n navtree.NodeID) bool {
			if at.compOf[n] != root {
				return false
			}
			w += oracleWeight(at, n)
			return true
		})
		if w > bestWeight {
			best, bestWeight = c, w
		}
	}
	return best
}

func oracleCollectPartitions(at *ActiveTree, root navtree.NodeID, roots []navtree.NodeID) []partition {
	isRoot := make(map[navtree.NodeID]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	sorted := append([]navtree.NodeID(nil), roots...)
	sort.Ints(sorted)
	if sorted[0] != root {
		panic("core: partition ordering violated")
	}
	parts := make([]partition, len(sorted))
	for i, r := range sorted {
		p := partition{root: r}
		at.nav.PreOrder(r, func(n navtree.NodeID) bool {
			if at.compOf[n] != root || (n != r && isRoot[n]) {
				return false
			}
			p.members = append(p.members, n)
			return true
		})
		parts[i] = p
	}
	return parts
}

// oracleParents fills each partition's parent index the way the old
// reduced-tree construction found it: the partition whose member list
// holds the navigation parent of the partition's root.
func oracleParents(at *ActiveTree, parts []partition) []partition {
	partOf := make(map[navtree.NodeID]int)
	for i, p := range parts {
		for _, m := range p.members {
			partOf[m] = i
		}
	}
	for i := range parts {
		parts[i].parent = -1
		if i > 0 {
			if pi, ok := partOf[at.nav.Parent(parts[i].root)]; ok {
				parts[i].parent = pi
			}
		}
	}
	return parts
}

// oraclePartitionCompTree builds the reduced supernode tree T_R from
// oracleKPartition's output, as the old construction did.
func oraclePartitionCompTree(at *ActiveTree, parts []partition) (*compTree, error) {
	if len(parts) > maxOptNodes {
		return nil, fmt.Errorf("core: %d partitions exceed Opt-EdgeCut limit %d", len(parts), maxOptNodes)
	}
	partOf := make(map[navtree.NodeID]int)
	for i, p := range parts {
		for _, m := range p.members {
			partOf[m] = i
		}
	}
	ct := newCompTree(len(parts), at.SumScores())
	nbits := at.nav.DistinctTotal()
	for i, p := range parts {
		b := newBitset(nbits)
		score := 0.0
		for _, m := range p.members {
			b.orInto(at.nodeBits(m))
			score += at.nodeScore(m)
		}
		ct.Bits[i] = b
		ct.Own[i] = b.count()
		ct.Score[i] = score
		if i == 0 {
			ct.Parent[i] = -1
			continue
		}
		navParent := at.nav.Parent(p.root)
		pi, ok := partOf[navParent]
		if !ok {
			return nil, fmt.Errorf("core: partition %d root %d has parent outside component", i, p.root)
		}
		if pi >= i {
			return nil, fmt.Errorf("core: partition order violated: parent %d !< child %d", pi, i)
		}
		ct.Parent[i] = pi
		ct.Children[pi] = append(ct.Children[pi], i)
		ct.NavEdge[i] = Edge{Parent: navParent, Child: p.root}
	}
	ct.computeDescMasks()
	return ct, nil
}
