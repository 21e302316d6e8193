package policy

import (
	"fmt"
	"math/bits"
)

// QuadAge is the quad-age pseudo-LRU used by Intel client LLCs, as
// reverse-engineered by Briongos et al. and re-verified in Section II-B /
// Figure 1 of the Leaky Way paper:
//
//   - every line carries a 2-bit age, 0 (youngest) .. 3 (oldest);
//   - insertion: a demand load is installed with age 2 (3 on some
//     pre-Skylake parts); the paper establishes that PREFETCHNTA installs
//     with age 3 (Property #1);
//   - replacement: scan the ways in order and evict the first one with age
//     3; if none exists, increment every age by one and rescan;
//   - update: a demand hit decrements the age (floor 0); a PREFETCHNTA hit
//     does not change the age at all (Property #2).
//
// The insertion ages are configurable so the same type also expresses the
// Section VI-D countermeasure policy (load age 1, NTA age 2), the
// pre-Skylake variant, and anything an ablation needs.
type QuadAge struct {
	// LoadAge is the insertion age for demand loads and T0 prefetches.
	LoadAge int
	// NTAAge is the insertion age for non-temporal prefetches.
	NTAAge int
	// HWAge is the insertion age for hardware-prefetcher fills.
	HWAge int
	// NTAHitUpdates, if true, makes an NTA hit decrement the age like a
	// demand hit (used to ablate Property #2).
	NTAHitUpdates bool
}

// maxQuadAge is the oldest age of the 2-bit scheme.
const maxQuadAge = 3

// NewQuadAge returns the policy with the stock Intel client parameters the
// paper reverse-engineers: load age 2, NTA age 3, NTA hits leave ages alone.
func NewQuadAge() *QuadAge {
	return &QuadAge{LoadAge: 2, NTAAge: 3, HWAge: 2}
}

// NewQuadAgeCountermeasure returns the Section VI-D mitigation: loads insert
// at age 1 and NTA prefetches at age 2, so a prefetched line still dies
// sooner than a loaded line but is no longer guaranteed to be the eviction
// candidate.
func NewQuadAgeCountermeasure() *QuadAge {
	return &QuadAge{LoadAge: 1, NTAAge: 2, HWAge: 1}
}

// Name implements Policy.
func (q *QuadAge) Name() string {
	return fmt.Sprintf("qlru(load=%d,nta=%d)", q.LoadAge, q.NTAAge)
}

// NewSet implements Policy. It panics on an insertion age outside the
// 2-bit range 0..3.
func (q *QuadAge) NewSet(ways int) SetState {
	for _, a := range []int{q.LoadAge, q.NTAAge, q.HWAge} {
		if a < 0 || a > maxQuadAge {
			panic(fmt.Sprintf("policy: quad-age insertion age %d outside 0..%d", a, maxQuadAge))
		}
	}
	return &quadAgeSet{
		all:           AllWays(ways),
		loadAge:       uint8(q.LoadAge),
		ntaAge:        uint8(q.NTAAge),
		hwAge:         uint8(q.HWAge),
		ntaHitUpdates: q.NTAHitUpdates,
	}
}

// quadAgeSet keeps the ages as bit planes: way w is valid when valid has
// bit w, and its age is 2*hi[w] + lo[w]. Invalid ways keep hi and lo clear,
// so hi&lo is exactly the set of valid age-3 ways. The victim scan and the
// aging pass are then a few word operations for any width up to 64 ways,
// and the state needs no per-set slice.
type quadAgeSet struct {
	valid, hi, lo Mask
	all           Mask // one bit per way
	loadAge       uint8
	ntaAge        uint8
	hwAge         uint8
	ntaHitUpdates bool
}

// insertAge maps an access class to its insertion age.
func (s *quadAgeSet) insertAge(cls AccessClass) uint8 {
	switch cls {
	case ClassNTA:
		return s.ntaAge
	case ClassHW:
		return s.hwAge
	default:
		return s.loadAge
	}
}

// Victim implements the scan-then-age loop. In-flight lines (reported
// non-evictable by the cache) are skipped exactly as hardware skips lines
// with outstanding fills — the effect the paper leans on when it spaces out
// sender and receiver prefetches.
func (s *quadAgeSet) Victim(evictable Mask) int {
	evictable &= s.all
	if evictable == 0 {
		return -1
	}
	// Each round takes the first evictable age-3 way, else ages every
	// valid way below 3 by one (a 2-bit increment across the planes).
	// Three rounds saturate every valid way, so five always suffice to
	// find a valid evictable way; when only invalid ways are evictable,
	// fall back to the first of them to stay total.
	for range 5 {
		if m := s.hi & s.lo & evictable; m != 0 {
			return bits.TrailingZeros64(uint64(m))
		}
		m := s.valid &^ (s.hi & s.lo)
		s.hi ^= s.lo & m
		s.lo ^= m
	}
	return firstWay(evictable)
}

// wayBit is way's bit in a plane. The & 63 (a no-op for the at most 64
// ways a Mask holds) spares the compiler the shift-overflow handling.
func wayBit(way int) Mask { return 1 << (uint(way) & 63) }

// OnFill implements SetState.
func (s *quadAgeSet) OnFill(way int, cls AccessClass) {
	b, age := wayBit(way), s.insertAge(cls)
	s.valid |= b
	s.hi = s.hi&^b | -Mask(age>>1)&b
	s.lo = s.lo&^b | -Mask(age&1)&b
}

// OnHit implements SetState.
func (s *quadAgeSet) OnHit(way int, cls AccessClass) {
	if cls == ClassNTA && !s.ntaHitUpdates {
		return // Property #2: an NTA hit leaves the age untouched.
	}
	// A 2-bit decrement of a nonzero age: lo flips, and hi flips when lo
	// borrows. Age 0 (and an invalid way) stays put.
	if b := wayBit(way); (s.hi|s.lo)&b != 0 {
		s.hi ^= b &^ s.lo
		s.lo ^= b
	}
}

// OnInvalidate implements SetState.
func (s *quadAgeSet) OnInvalidate(way int) {
	s.valid = s.valid.Without(way)
	s.hi = s.hi.Without(way)
	s.lo = s.lo.Without(way)
}

// AgeAt implements SetState; -1 marks an invalid way.
func (s *quadAgeSet) AgeAt(way int) int {
	if !s.valid.Has(way) {
		return -1
	}
	return int(s.hi>>uint(way)&1)<<1 | int(s.lo>>uint(way)&1)
}

// Reset implements SetState.
func (s *quadAgeSet) Reset() {
	s.valid, s.hi, s.lo = 0, 0, 0
}
