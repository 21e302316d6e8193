// Package policy implements cache replacement policies as pluggable per-set
// state machines. The load-bearing one is QuadAge, the quad-age pseudo-LRU
// that prior work reverse-engineered on Intel client LLCs and that the Leaky
// Way paper's PREFETCHNTA properties are defined against. Tree-PLRU and
// Bit-PLRU cover the private levels, and the remaining policies exist as
// baselines and for countermeasure studies.
package policy

import "math/bits"

// AccessClass tells a policy what kind of request caused a fill or hit, so
// that it can treat demand loads and non-temporal prefetches differently —
// the asymmetry the entire paper exploits.
type AccessClass int

const (
	// ClassLoad is a demand load (or store) from the core.
	ClassLoad AccessClass = iota
	// ClassNTA is a PREFETCHNTA software prefetch.
	ClassNTA
	// ClassT0 is a PREFETCHT0-style temporal software prefetch.
	ClassT0
	// ClassHW is a hardware prefetcher fill.
	ClassHW
)

// String implements fmt.Stringer.
func (c AccessClass) String() string {
	switch c {
	case ClassLoad:
		return "load"
	case ClassNTA:
		return "nta"
	case ClassT0:
		return "t0"
	case ClassHW:
		return "hw"
	}
	return "unknown"
}

// Mask is a bitset of way indices: bit w set means way w is evictable.
// Masks keep the per-fill victim selection allocation-free — the cache
// builds one word instead of a closure for every eviction decision.
// Way counts are therefore capped at 64, far above any real associativity.
type Mask uint64

// AllWays returns the mask with the low `ways` bits set.
func AllWays(ways int) Mask {
	if ways >= 64 {
		return ^Mask(0)
	}
	return Mask(1)<<uint(ways) - 1
}

// Has reports whether way is in the mask.
func (m Mask) Has(way int) bool { return m>>uint(way)&1 != 0 }

// Without returns the mask with way removed.
func (m Mask) Without(way int) Mask { return m &^ (1 << uint(way)) }

// firstWay returns the lowest way in the mask, or -1 if it is empty.
func firstWay(m Mask) int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(m))
}

// Policy is a factory for per-set replacement state.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// NewSet creates replacement state for one set with the given number
	// of ways.
	NewSet(ways int) SetState
}

// SetState is the replacement bookkeeping for a single cache set. The cache
// guarantees way indices are in range and that OnFill follows a Victim (or
// targets an invalid way).
type SetState interface {
	// Victim selects the way to evict, consulting the evictable mask to
	// skip ways that cannot currently be replaced (invalid ways are never
	// masked in here for their own sake — the cache fills those directly).
	// It returns -1 if no way is evictable. Victim may mutate state
	// (e.g. quad-age aging).
	Victim(evictable Mask) int
	// OnFill records that a line of the given class was installed in way.
	OnFill(way int, cls AccessClass)
	// OnHit records a hit of the given class on way.
	OnHit(way int, cls AccessClass)
	// OnInvalidate clears any per-way state when a line is removed
	// without replacement (flush or back-invalidation).
	OnInvalidate(way int)
	// AgeAt returns one way's metadata value (age/rank) without
	// allocating. The meaning is policy-specific; -1 marks "no meaningful
	// value".
	AgeAt(way int) int
	// Reset restores the state to exactly what NewSet returned, without
	// allocating — the arena recycling path (sim.Arena) calls it instead
	// of rebuilding per-set state for every Monte-Carlo trial.
	// Stateful policies must also rewind any internal randomness to its
	// initial stream so a recycled set is indistinguishable from a fresh
	// one.
	Reset()
}

// Ages returns every way's AgeAt value for a set of the given number of
// ways — the per-way metadata (ages/ranks) that views and traces show.
func Ages(s SetState, ways int) []int {
	out := make([]int, ways)
	for w := range out {
		out[w] = s.AgeAt(w)
	}
	return out
}
