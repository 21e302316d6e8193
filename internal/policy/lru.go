package policy

// LRU is true least-recently-used replacement, kept as a baseline for
// policy-comparison experiments; real LLCs avoid it for its metadata cost
// (w·log w bits per set, as Section II-B of the paper recounts).
type LRU struct{}

// NewLRU returns the policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// NewSet implements Policy.
func (*LRU) NewSet(ways int) SetState {
	stamp := make([]int64, ways)
	for i := range stamp {
		stamp[i] = -1
	}
	return &lruSet{stamp: stamp}
}

type lruSet struct {
	clock int64
	stamp []int64 // last-use time per way; -1 = never used
}

func (s *lruSet) touch(way int) {
	s.clock++
	s.stamp[way] = s.clock
}

// Victim implements SetState: oldest evictable way.
func (s *lruSet) Victim(evictable Mask) int {
	best, bestStamp := -1, int64(0)
	for way, st := range s.stamp {
		if !evictable.Has(way) {
			continue
		}
		if best == -1 || st < bestStamp {
			best, bestStamp = way, st
		}
	}
	return best
}

// OnFill implements SetState.
func (s *lruSet) OnFill(way int, _ AccessClass) { s.touch(way) }

// OnHit implements SetState.
func (s *lruSet) OnHit(way int, _ AccessClass) { s.touch(way) }

// OnInvalidate implements SetState.
func (s *lruSet) OnInvalidate(way int) { s.stamp[way] = -1 }

// Reset implements SetState.
func (s *lruSet) Reset() {
	s.clock = 0
	for i := range s.stamp {
		s.stamp[i] = -1
	}
}

// AgeAt implements SetState: recency rank, 0 = most recent.
func (s *lruSet) AgeAt(way int) int {
	rank := 0
	for j := range s.stamp {
		if s.stamp[j] > s.stamp[way] {
			rank++
		}
	}
	return rank
}
