package policy

import (
	"math/bits"
	"slices"
	"testing"
)

// refTreePLRUSet is the one-bool-per-node tree-PLRU the packed treePLRUSet
// replaced, kept as the obviously correct reference: it walks [lo, hi)
// intervals instead of way bits.
type refTreePLRUSet struct {
	ways int
	node []bool // heap-ordered internal nodes; true = right subtree is colder
}

func newRefTreePLRUSet(ways int) *refTreePLRUSet {
	return &refTreePLRUSet{ways: ways, node: make([]bool, ways-1)}
}

func (s *refTreePLRUSet) touch(way int) {
	idx, lo, hi := 0, 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		goRight := way >= mid
		s.node[idx] = !goRight
		if goRight {
			idx, lo = 2*idx+2, mid
		} else {
			idx, hi = 2*idx+1, mid
		}
	}
}

func (s *refTreePLRUSet) victimLeaf() int {
	idx, lo, hi := 0, 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.node[idx] {
			idx, lo = 2*idx+2, mid
		} else {
			idx, hi = 2*idx+1, mid
		}
	}
	return lo
}

func (s *refTreePLRUSet) Victim(evictable Mask) int {
	if leaf := s.victimLeaf(); evictable.Has(leaf) {
		return leaf
	}
	for way := 0; way < s.ways; way++ {
		if evictable.Has(way) {
			return way
		}
	}
	return -1
}

func (s *refTreePLRUSet) OnFill(way int, _ AccessClass) { s.touch(way) }
func (s *refTreePLRUSet) OnHit(way int, _ AccessClass)  { s.touch(way) }
func (s *refTreePLRUSet) OnInvalidate(int)              {}
func (s *refTreePLRUSet) Reset()                        { clear(s.node) }

func (s *refTreePLRUSet) AgeAt(way int) int {
	if s.victimLeaf() == way {
		return 1
	}
	return 0
}

func (s *refTreePLRUSet) Snapshot() []int {
	out := make([]int, s.ways)
	out[s.victimLeaf()] = 1
	return out
}

// refBitPLRUSet is the one-bool-per-way bit-PLRU the packed bitPLRUSet
// replaced, kept as the reference.
type refBitPLRUSet struct {
	mru []bool
}

func (s *refBitPLRUSet) touch(way int) {
	s.mru[way] = true
	for _, b := range s.mru {
		if !b {
			return
		}
	}
	for i := range s.mru {
		s.mru[i] = i == way
	}
}

func (s *refBitPLRUSet) Victim(evictable Mask) int {
	for way, b := range s.mru {
		if !b && evictable.Has(way) {
			return way
		}
	}
	for way := range s.mru {
		if evictable.Has(way) {
			return way
		}
	}
	return -1
}

func (s *refBitPLRUSet) OnFill(way int, _ AccessClass) { s.touch(way) }
func (s *refBitPLRUSet) OnHit(way int, _ AccessClass)  { s.touch(way) }
func (s *refBitPLRUSet) OnInvalidate(way int)          { s.mru[way] = false }
func (s *refBitPLRUSet) Reset()                        { clear(s.mru) }

func (s *refBitPLRUSet) AgeAt(way int) int {
	if s.mru[way] {
		return 1
	}
	return 0
}

func (s *refBitPLRUSet) Snapshot() []int {
	out := make([]int, len(s.mru))
	for i := range out {
		out[i] = s.AgeAt(i)
	}
	return out
}

// FuzzPLRUReference drives one byte stream through the packed tree-PLRU and
// bit-PLRU and their per-way bool references, and requires Victim, AgeAt and
// Snapshot to agree after every operation. The first byte picks the way
// count: 1-64 for bit-PLRU, the power of two at or below it for tree-PLRU.
// Each later byte pair is (op, way); Victim ops draw their evictable mask
// from the next eight bytes, which may set bits beyond the way count.
func FuzzPLRUReference(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 3, 0, 1, 5})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 0, 3, 4, 0, 0xfe, 0, 0, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{63, 0, 63, 1, 10, 2, 62, 3, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bitWays := int(data[0])%64 + 1
		treeWays := 1 << (bits.Len(uint(bitWays)) - 1)
		pairs := []struct {
			name      string
			ways      int
			got, want SetState
		}{
			{"tree-plru", treeWays, NewTreePLRU().NewSet(treeWays), newRefTreePLRUSet(treeWays)},
			{"bit-plru", bitWays, NewBitPLRU().NewSet(bitWays), &refBitPLRUSet{mru: make([]bool, bitWays)}},
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, int(data[i+1])
			var evictable Mask
			if op == 3 {
				for j := 0; j < 8 && i+2+j < len(data); j++ {
					evictable |= Mask(data[i+2+j]) << (8 * j)
				}
			}
			for _, p := range pairs {
				way := arg % p.ways
				switch op {
				case 0:
					p.got.OnFill(way, ClassLoad)
					p.want.OnFill(way, ClassLoad)
				case 1:
					p.got.OnHit(way, ClassNTA)
					p.want.OnHit(way, ClassNTA)
				case 2:
					p.got.OnInvalidate(way)
					p.want.OnInvalidate(way)
				case 3:
					if g, w := p.got.Victim(evictable), p.want.Victim(evictable); g != w {
						t.Fatalf("op %d %s: Victim(%#x) = %d, reference %d", i/2, p.name, evictable, g, w)
					}
				case 4:
					p.got.Reset()
					p.want.Reset()
				}
				gs, ws := p.got.Snapshot(), p.want.Snapshot()
				if !slices.Equal(gs, ws) {
					t.Fatalf("op %d %s: Snapshot %v, reference %v", i/2, p.name, gs, ws)
				}
				for w := 0; w < p.ways; w++ {
					if g, r := p.got.AgeAt(w), p.want.AgeAt(w); g != r {
						t.Fatalf("op %d %s: AgeAt(%d) = %d, reference %d", i/2, p.name, w, g, r)
					}
				}
				if g, w := p.got.Victim(AllWays(p.ways)), p.want.Victim(AllWays(p.ways)); g != w {
					t.Fatalf("op %d %s: Victim(all) = %d, reference %d", i/2, p.name, g, w)
				}
			}
		}
	})
}
