package policy

import "math/bits"

// BitPLRU (MRU-bit pseudo-LRU, Malamy et al.) keeps one bit per way. A hit
// sets the way's bit; when the last zero bit is consumed, all other bits are
// cleared. The victim is the first way with a zero bit. Intel client L2s
// behave like this to a first approximation.
type BitPLRU struct{}

// NewBitPLRU returns the policy.
func NewBitPLRU() *BitPLRU { return &BitPLRU{} }

// Name implements Policy.
func (*BitPLRU) Name() string { return "bit-plru" }

// NewSet implements Policy.
func (*BitPLRU) NewSet(ways int) SetState {
	return &bitPLRUSet{all: AllWays(ways)}
}

// bitPLRUSet holds the MRU bits as one mask; all has a bit per way.
type bitPLRUSet struct {
	all Mask
	mru Mask
}

func (s *bitPLRUSet) touch(way int) {
	s.mru |= 1 << uint(way)
	if s.mru == s.all {
		// All bits set: clear everything except the most recent access.
		s.mru = 1 << uint(way)
	}
}

// Victim implements SetState: first zero-bit evictable way, else first
// evictable way.
func (s *bitPLRUSet) Victim(evictable Mask) int {
	evictable &= s.all
	if cold := evictable &^ s.mru; cold != 0 {
		return firstWay(cold)
	}
	return firstWay(evictable)
}

// OnFill implements SetState.
func (s *bitPLRUSet) OnFill(way int, _ AccessClass) { s.touch(way) }

// OnHit implements SetState.
func (s *bitPLRUSet) OnHit(way int, _ AccessClass) { s.touch(way) }

// OnInvalidate implements SetState.
func (s *bitPLRUSet) OnInvalidate(way int) { s.mru = s.mru.Without(way) }

// Reset implements SetState.
func (s *bitPLRUSet) Reset() { s.mru = 0 }

// AgeAt implements SetState: 1 for MRU bits.
func (s *bitPLRUSet) AgeAt(way int) int {
	if s.mru.Has(way) {
		return 1
	}
	return 0
}

// Snapshot implements SetState: 1 for MRU bits.
func (s *bitPLRUSet) Snapshot() []int {
	out := make([]int, bits.Len64(uint64(s.all)))
	for i := range out {
		out[i] = s.AgeAt(i)
	}
	return out
}
