// Package core implements BioNav's primary contribution: the active tree
// with its I(n) component sets and EdgeCut operation (Definitions 3–5), the
// TOPDOWN navigation cost model with EXPLORE/EXPAND probability estimation
// (§III–IV), the exponential Opt-EdgeCut dynamic program, the k-partition
// tree reduction, and the Heuristic-ReducedOpt expansion policy (§VI),
// plus the static-navigation baselines the paper compares against (§VIII).
package core

import (
	"math/bits"
	"sync"
)

// bitset is a fixed-width bitmap over the distinct citations of one query
// result. Distinct counts throughout the cost model are popcounts of unions
// of these bitsets, which keeps Opt-EdgeCut's inner loop allocation-free.
type bitset []uint64

func newBitset(nbits int) bitset {
	return make(bitset, (nbits+63)/64)
}

// scratchPool recycles transient union buffers across NewActiveTree /
// Distinct / Opt-EdgeCut calls. Buffers are width-agnostic: getScratch
// reslices a pooled buffer when it is wide enough and falls back to a
// fresh allocation otherwise, so mixed-size trees simply repopulate the
// pool with the larger width over time. A buffer travels in the box the
// pool holds it in, so a warm get/put pair allocates nothing.
var scratchPool sync.Pool // holds *bitset

// getScratch returns a zeroed bitset of at least nbits bits, preferably
// from the pool. Pair every getScratch with a putScratch of the same
// pointer once the buffer's contents are no longer needed.
func getScratch(nbits int) *bitset {
	dpScratchGets.Inc()
	words := (nbits + 63) / 64
	if v := scratchPool.Get(); v != nil {
		b := v.(*bitset)
		if cap(*b) >= words {
			*b = (*b)[:words]
			b.clear()
			return b
		}
	}
	b := make(bitset, words)
	return &b
}

// putScratch returns a buffer obtained from getScratch to the pool.
func putScratch(b *bitset) {
	if cap(*b) == 0 {
		return
	}
	*b = (*b)[:cap(*b)]
	scratchPool.Put(b)
}

func (b bitset) set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// orInto ORs src into b (same width).
func (b bitset) orInto(src bitset) {
	for i, w := range src {
		b[i] |= w
	}
}

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}
