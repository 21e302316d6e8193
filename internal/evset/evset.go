// Package evset implements LLC eviction-set construction from timing alone:
// the access-based state-of-the-art baseline (Prime+Scope's approach) and
// the paper's prefetch-based Algorithm 2, which exploits PREFETCHNTA's
// install-as-eviction-candidate property to detect each congruent line with
// a single conflict instead of ~w of them. The evset/model subpackage holds
// the policy-level simulation behind the Section VI-D countermeasure study.
package evset

import (
	"errors"
	"fmt"

	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// ErrPoolExhausted is returned when the candidate pool runs out before the
// desired eviction set is complete (or, for group testing, does not evict
// the target at all).
var ErrPoolExhausted = errors.New("evset: candidate pool exhausted")

// ErrIrreducible is returned by BuildGroupTesting when no group can be
// removed but the set is still larger than desired.
var ErrIrreducible = errors.New("evset: candidate set cannot be reduced further")

// errDesired builds the shared validation error.
func errDesired(d int) error {
	return fmt.Errorf("evset: Desired must be positive, got %d", d)
}

// Options configures a construction run.
type Options struct {
	// Desired is the eviction-set size wanted (defaults to the LLC
	// associativity of the machine the core runs on).
	Desired int
	// Pool is the stream of candidate lines to test (typically one line
	// per page, all sharing the target's page offset).
	Pool []mem.VAddr
	// Thresholds classifies timed operations; calibrate with
	// core.Calibrate.
	Thresholds core.Thresholds
}

// Result reports a constructed eviction set and the cost of finding it.
type Result struct {
	// Set holds the congruent lines found.
	Set []mem.VAddr
	// MemRefs counts every load/prefetch/flush issued.
	MemRefs int
	// Cycles is the simulated time the construction took.
	Cycles int64
	// Tested counts candidates consumed from the pool.
	Tested int
}

// NewPool allocates a candidate pool of one line per fresh page, each
// sharing the target's page offset — the standard shape for eviction-set
// search, since the page offset pins the set-index bits an unprivileged
// attacker controls.
func NewPool(c *sim.Core, target mem.VAddr, pages int) []mem.VAddr {
	base := c.Alloc(uint64(pages) * mem.PageSize)
	off := mem.VAddr(target.PageOffset() &^ (mem.LineSize - 1))
	pool := make([]mem.VAddr, pages)
	for i := range pool {
		pool[i] = base + mem.VAddr(i)*mem.PageSize + off
	}
	return pool
}

// BuildPrefetch is Algorithm 2 of the paper. It repeatedly re-installs the
// target as the LLC eviction candidate with PREFETCHNTA and prefetches
// candidates; the first candidate whose prefetch evicts the target (making
// the next timed prefetch of the target slow) is congruent.
func BuildPrefetch(c *sim.Core, target mem.VAddr, opt Options) (Result, error) {
	desired := opt.Desired
	if desired <= 0 {
		return Result{}, errDesired(desired)
	}
	var res Result
	start := c.Now()
	next := 0
	for len(res.Set) < desired {
		// Line 4: (re-)install the target as the eviction candidate.
		c.PrefetchNTA(target)
		res.MemRefs++
		found := false
		for !found {
			if next >= len(opt.Pool) {
				res.Cycles = c.Now() - start
				return res, ErrPoolExhausted
			}
			lc := opt.Pool[next]
			next++
			res.Tested++
			// Line 7: prefetch the candidate.
			c.PrefetchNTA(lc)
			res.MemRefs++
			// Line 8: timed prefetch of the target. Slow (DRAM)
			// means the candidate evicted it — congruent. This
			// prefetch also re-installs the target as candidate,
			// so the loop can continue immediately.
			t := c.TimedPrefetchNTA(target)
			res.MemRefs++
			if opt.Thresholds.IsMiss(t) {
				res.Set = append(res.Set, lc)
				found = true
			}
		}
	}
	res.Cycles = c.Now() - start
	return res, nil
}

// BuildBaseline is the access-based state-of-the-art the paper compares
// against: identical control flow, but the target and candidates are
// accessed with demand loads. A congruent candidate is only observable once
// roughly w congruent lines have been accessed since the target was last
// (re)loaded, because the target is inserted young and private-cache hits on
// it never refresh its LLC age.
func BuildBaseline(c *sim.Core, target mem.VAddr, opt Options) (Result, error) {
	desired := opt.Desired
	if desired <= 0 {
		return Result{}, errDesired(desired)
	}
	var res Result
	start := c.Now()
	next := 0
	for len(res.Set) < desired {
		c.Load(target)
		res.MemRefs++
		// Re-access the lines found so far to refresh their ages and
		// keep pressure on the set — the optimization the paper notes
		// ("accessing EV between line 4 and line 5 can slightly reduce
		// this number").
		for _, va := range res.Set {
			c.Load(va)
			res.MemRefs++
		}
		found := false
		for !found {
			if next >= len(opt.Pool) {
				res.Cycles = c.Now() - start
				return res, ErrPoolExhausted
			}
			lc := opt.Pool[next]
			next++
			res.Tested++
			c.Load(lc)
			res.MemRefs++
			t := c.TimedLoad(target)
			res.MemRefs++
			if opt.Thresholds.IsMiss(t) {
				res.Set = append(res.Set, lc)
				found = true
			}
		}
	}
	res.Cycles = c.Now() - start
	return res, nil
}

// Verify checks, via the machine's geometry, how many of the found lines are
// truly congruent with the target (test/diagnostic helper — a real attacker
// cannot do this).
func Verify(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, set []mem.VAddr) int {
	geo := m.H.Geometry()
	tl := as.MustTranslate(target).Line()
	ok := 0
	for _, va := range set {
		if geo.Congruent(as.MustTranslate(va).Line(), tl) {
			ok++
		}
	}
	return ok
}

// NewHugePool allocates a physically contiguous (huge-page) region and
// returns a target line inside it plus candidates that share the target's
// full set-index bits by construction — contiguity makes every set bit
// computable from the offset, leaving only the slice hash unknown. The
// congruent fraction rises from 1/(slices·2^hiddenSetBits) to 1/slices,
// cutting construction work by the same factor.
func NewHugePool(c *sim.Core, setsPerSlice int, lines int) (target mem.VAddr, pool []mem.VAddr, err error) {
	stride := uint64(setsPerSlice) * mem.LineSize
	base, err := c.AS.AllocContiguous(uint64(lines+1) * stride)
	if err != nil {
		return 0, nil, err
	}
	target = base
	pool = make([]mem.VAddr, lines)
	for i := range pool {
		pool[i] = base + mem.VAddr(uint64(i+1)*stride)
	}
	return target, pool, nil
}
