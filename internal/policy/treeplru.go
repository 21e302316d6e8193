package policy

import "math/bits"

// TreePLRU is the classic binary-tree pseudo-LRU used by Intel L1 data
// caches: a complete binary tree of direction bits over the ways; a hit
// points every node on the way's root path away from it, and the victim is
// found by following the direction bits from the root.
//
// The way count must be a power of two.
type TreePLRU struct{}

// NewTreePLRU returns the policy.
func NewTreePLRU() *TreePLRU { return &TreePLRU{} }

// Name implements Policy.
func (*TreePLRU) Name() string { return "tree-plru" }

// NewSet implements Policy.
func (*TreePLRU) NewSet(ways int) SetState {
	if ways <= 0 || bits.OnesCount(uint(ways)) != 1 {
		panic("policy: TreePLRU requires a power-of-two way count")
	}
	return &treePLRUSet{levels: bits.TrailingZeros(uint(ways))}
}

// treePLRUSet packs the ways-1 (at most 63) internal nodes into one word in
// heap order: bit 0 is the root, node i's children are bits 2i+1 and 2i+2.
// A set bit means the right subtree is colder. Way w's root path follows the
// bits of w from the most significant one down, so touch and victimLeaf are
// log2(ways) bit steps. (Shift counts are masked with &63 only so the
// compiler can drop its oversized-shift handling; they never exceed 62.)
type treePLRUSet struct {
	levels int // log2(ways)
	node   uint64
}

// touch points the root path of way away from it, marking it most recent.
func (s *treePLRUSet) touch(way int) {
	node, idx := s.node, uint(0)
	for l := s.levels - 1; l >= 0; l-- {
		right := uint(way>>(uint(l)&63)) & 1
		node = node&^(1<<(idx&63)) | uint64(right^1)<<(idx&63) // point away
		idx = 2*idx + 1 + right
	}
	s.node = node
}

// victimLeaf follows the direction bits to the PLRU leaf without mutating
// any state.
func (s *treePLRUSet) victimLeaf() int {
	node, idx, leaf := s.node, uint(0), 0
	for l := 0; l < s.levels; l++ {
		right := uint(node>>(idx&63)) & 1
		leaf = leaf<<1 | int(right)
		idx = 2*idx + 1 + right
	}
	return leaf
}

// Victim follows the direction bits to the PLRU leaf. If that leaf is not
// evictable it falls back to the first evictable way — hardware stalls
// instead, but the distinction never matters at the private levels where
// this policy is used.
func (s *treePLRUSet) Victim(evictable Mask) int {
	if leaf := s.victimLeaf(); evictable.Has(leaf) {
		return leaf
	}
	return firstWay(evictable & AllWays(1<<s.levels))
}

// OnFill implements SetState.
func (s *treePLRUSet) OnFill(way int, _ AccessClass) { s.touch(way) }

// OnHit implements SetState.
func (s *treePLRUSet) OnHit(way int, _ AccessClass) { s.touch(way) }

// OnInvalidate implements SetState. Tree-PLRU keeps no per-way validity, so
// nothing to clear; the cache prefers invalid ways before asking for a
// victim.
func (s *treePLRUSet) OnInvalidate(int) {}

// Reset implements SetState.
func (s *treePLRUSet) Reset() { s.node = 0 }

// AgeAt implements SetState: 1 for the victim-path leaf, 0 elsewhere.
func (s *treePLRUSet) AgeAt(way int) int {
	if s.victimLeaf() == way {
		return 1
	}
	return 0
}

// Snapshot implements SetState. Tree-PLRU has no per-way rank; report the
// victim-path leaf as 1 and everything else as 0 so traces show the
// candidate.
func (s *treePLRUSet) Snapshot() []int {
	out := make([]int, 1<<s.levels)
	out[s.victimLeaf()] = 1
	return out
}
