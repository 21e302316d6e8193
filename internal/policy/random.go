package policy

import "math/rand"

// Random evicts a uniformly random evictable way. Deterministic for a given
// seed; used as the weakest baseline in policy-comparison experiments.
type Random struct {
	Seed int64
}

// NewRandom returns the policy with the given seed.
func NewRandom(seed int64) *Random { return &Random{Seed: seed} }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// NewSet implements Policy.
func (p *Random) NewSet(ways int) SetState {
	return &randomSet{ways: ways, seed: p.Seed, rng: rand.New(rand.NewSource(p.Seed))}
}

type randomSet struct {
	ways int
	seed int64
	rng  *rand.Rand
}

// Victim implements SetState. The draw is Intn over the candidate count —
// the same RNG consumption as the historical slice-building version, so
// seeded runs stay byte-identical — followed by a second scan selecting
// the k-th evictable way without allocating.
func (s *randomSet) Victim(evictable Mask) int {
	count := 0
	for way := 0; way < s.ways; way++ {
		if evictable.Has(way) {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	k := s.rng.Intn(count)
	for way := 0; way < s.ways; way++ {
		if evictable.Has(way) {
			if k == 0 {
				return way
			}
			k--
		}
	}
	return -1
}

// OnFill implements SetState.
func (*randomSet) OnFill(int, AccessClass) {}

// OnHit implements SetState.
func (*randomSet) OnHit(int, AccessClass) {}

// OnInvalidate implements SetState.
func (*randomSet) OnInvalidate(int) {}

// AgeAt implements SetState.
func (*randomSet) AgeAt(int) int { return 0 }

// Reset implements SetState: rewind the victim stream to its seed so a
// recycled set draws the same eviction sequence as a fresh one.
func (s *randomSet) Reset() { s.rng.Seed(s.seed) }
