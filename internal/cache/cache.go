// Package cache implements a generic set-associative cache with pluggable
// replacement policy and per-line in-flight (MSHR) windows. It knows nothing
// about levels or inclusion; package hier composes caches into the Intel
// hierarchy the paper targets.
package cache

import (
	"fmt"
	"math/bits"

	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

// CohState is a private-cache line's coherence state (MESI without the
// I — invalid lines are simply not Valid).
type CohState uint8

// Coherence states.
const (
	CohShared CohState = iota
	CohExclusive
	CohModified
)

// String implements fmt.Stringer.
func (s CohState) String() string {
	switch s {
	case CohShared:
		return "S"
	case CohExclusive:
		return "E"
	case CohModified:
		return "M"
	}
	return "?"
}

// Line is one cache way's contents, as a view value. The cache itself keeps
// line state in structure-of-arrays form (see Cache); Line is what ViewSet
// and the trace/assertion surface hand out.
type Line struct {
	Addr  mem.LineAddr
	Valid bool
	Dirty bool
	// Coh is the coherence state; meaningful only in private caches.
	Coh CohState
	// InFlightUntil is the cycle at which the fill that installed this
	// line completes. Until then the line cannot be evicted — the paper
	// relies on this to explain why a single-set NTP+NTP channel must
	// space out its prefetches (Section IV-B2).
	InFlightUntil int64
}

// meta bit layout: bit 0 = valid, bit 1 = dirty, bits 2-3 = coherence state.
const (
	metaValid   = uint8(1 << 0)
	metaDirty   = uint8(1 << 1)
	metaCohShft = 2
	metaCohMask = uint8(3 << metaCohShft)
)

// Config describes one cache.
type Config struct {
	Name string
	Sets int
	Ways int
	Pol  policy.Policy
}

// Stats counts cache events for diagnostics and experiments.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
	Flushes   uint64
}

// Cache is a single set-associative cache array.
//
// Line state is held as structure-of-arrays: a flat address array, a packed
// valid/dirty/coherence byte per way, the in-flight deadline array and the
// core-valid (sharer) mask array, each indexed by set*ways+way. Each set
// also keeps a summary (valid ways as one word, the latest in-flight
// deadline) so a fill finds a free way or an evictable mask without
// scanning the set. The split
// keeps the hot probe loop scanning a contiguous uint64 lane (addresses)
// with a parallel one-byte metadata lane, and — just as importantly — makes
// recycling cheap: the cache records which sets were ever written, so Reset
// restores a heavily-used cache to its freshly-built state by re-zeroing
// only those sets instead of the whole multi-megabyte array.
// hier.Pool leans on that to run Monte-Carlo trials without rebuilding a
// hierarchy per trial.
type Cache struct {
	cfg   Config
	all   policy.Mask    // one bit per way
	addrs []mem.LineAddr // sets*ways line addresses
	meta  []uint8        // sets*ways packed valid/dirty/coh
	ready []int64        // sets*ways in-flight deadlines
	sum   []setSummary   // per set
	// sharers holds each line's core-valid bits: bit c set means core c
	// may hold a private copy. The cache only stores and clears the mask
	// (a fill or invalidation of the way resets it); package hier decides
	// what the bits mean. The lane is allocated by the first AddSharer, so
	// caches that never track sharers (private levels, directories) do
	// not carry it.
	sharers []uint64

	states []policy.SetState

	// touched lists the sets mutated since construction or the last Reset;
	// isTouched is its membership bitmap. A set is marked at its first
	// fill attempt — every other mutation (hit update, invalidate, dirty
	// or coherence marking) requires a valid line and therefore a prior
	// fill in the same set.
	touched   []int32
	isTouched []bool

	stats Stats
}

// setSummary condenses one set's line state into words the fill path reads
// instead of scanning the ways.
type setSummary struct {
	// valid has bit w set exactly when way w's meta valid bit is set.
	valid policy.Mask
	// latest is the largest readyAt installed since the last Reset. It is
	// never lowered, so latest <= now proves no way is in flight.
	latest int64
}

// New builds the cache. All sets share flat preallocated state arrays (each
// set views its own ways-sized window), so a set scan touches contiguous
// memory and construction cost does not scale with the set count beyond the
// per-set policy state.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: sets=%d ways=%d must be positive", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %q: ways=%d exceeds the 64-way mask limit", cfg.Name, cfg.Ways))
	}
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:       cfg,
		all:       policy.AllWays(cfg.Ways),
		addrs:     make([]mem.LineAddr, n),
		meta:      make([]uint8, n),
		ready:     make([]int64, n),
		sum:       make([]setSummary, cfg.Sets),
		states:    make([]policy.SetState, cfg.Sets),
		isTouched: make([]bool, cfg.Sets),
	}
	for i := range c.states {
		c.states[i] = cfg.Pol.NewSet(cfg.Ways)
	}
	return c
}

// Reset restores the cache to its freshly-built state: every previously
// touched set has its line state re-zeroed and its policy state reset, and
// the event counters are cleared. Cost is proportional to the number of
// distinct sets the previous use actually wrote, not the geometry.
func (c *Cache) Reset() {
	for _, s := range c.touched {
		base := int(s) * c.cfg.Ways
		for i := base; i < base+c.cfg.Ways; i++ {
			c.addrs[i] = 0
			c.meta[i] = 0
			c.ready[i] = 0
		}
		if c.sharers != nil {
			clear(c.sharers[base : base+c.cfg.Ways])
		}
		c.sum[s] = setSummary{}
		c.states[s].Reset()
		c.isTouched[s] = false
	}
	c.touched = c.touched[:0]
	c.stats = Stats{}
}

// markTouched records that setIdx has been mutated since the last Reset.
func (c *Cache) markTouched(setIdx int) {
	if !c.isTouched[setIdx] {
		c.isTouched[setIdx] = true
		c.touched = append(c.touched, int32(setIdx))
	}
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Probe looks a line up without touching replacement state. It returns the
// way index and whether the line is present.
func (c *Cache) Probe(setIdx int, la mem.LineAddr) (way int, ok bool) {
	base := setIdx * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.addrs[base+w] == la && c.meta[base+w]&metaValid != 0 {
			return w, true
		}
	}
	return -1, false
}

// Touch records a hit of the given class on a line previously found with
// Probe, updating replacement state.
func (c *Cache) Touch(setIdx, way int, cls policy.AccessClass) {
	c.stats.Hits++
	c.states[setIdx].OnHit(way, cls)
}

// MarkDirty flags the line as modified.
func (c *Cache) MarkDirty(setIdx, way int) {
	c.meta[setIdx*c.cfg.Ways+way] |= metaDirty
}

// Coh returns the line's coherence state.
func (c *Cache) Coh(setIdx, way int) CohState {
	return CohState(c.meta[setIdx*c.cfg.Ways+way]&metaCohMask) >> metaCohShft
}

// SetCoh updates the line's coherence state.
func (c *Cache) SetCoh(setIdx, way int, s CohState) {
	i := setIdx*c.cfg.Ways + way
	c.meta[i] = c.meta[i]&^metaCohMask | uint8(s)<<metaCohShft
}

// Sharers returns the line's core-valid mask (0 if no line of this cache
// ever had a sharer added).
func (c *Cache) Sharers(setIdx, way int) uint64 {
	if c.sharers == nil {
		return 0
	}
	return c.sharers[setIdx*c.cfg.Ways+way]
}

// AddSharer sets core's bit in the line's core-valid mask.
func (c *Cache) AddSharer(setIdx, way, core int) {
	if c.sharers == nil {
		c.sharers = make([]uint64, len(c.addrs))
	}
	c.sharers[setIdx*c.cfg.Ways+way] |= 1 << uint(core)
}

// Evicted describes a line displaced by Fill or Install.
type Evicted struct {
	Addr  mem.LineAddr
	Dirty bool
	// Sharers is the victim's core-valid mask at eviction.
	Sharers uint64
}

// Fill installs la into the given set with the given access class at time
// now; the fill completes (and the line becomes evictable) at readyAt.
//
// A line already present (racing fills) is treated as a hit refresh of its
// way. Otherwise Fill is Install with every way allowed.
func (c *Cache) Fill(setIdx int, la mem.LineAddr, cls policy.AccessClass, now, readyAt int64) (way int, ev Evicted, evicted bool) {
	if w, present := c.Probe(setIdx, la); present {
		c.states[setIdx].OnHit(w, cls)
		return w, Evicted{}, false
	}
	return c.Install(setIdx, la, cls, now, readyAt, c.all)
}

// Install puts la, which the caller knows is absent from the set (it has
// just missed there and installed nothing since), into a way of the allowed
// mask. Installing a present line would hold it twice; Fill is the entry
// point for callers that have not looked.
//
// Install prefers an allowed invalid way; otherwise it asks the policy for a
// victim among the allowed ways whose fills are no longer in flight at time
// now. It returns the way now holding la and the displaced line, if any.
// way is -1 when every allowed way is in flight and nothing can be replaced
// — the caller treats the fill as dropped, which is how the paper describes
// conflicting in-flight prefetches behaving. The allowed mask is the
// mechanism behind way-partitioned (isolation) LLC defenses: a security
// domain's fills can never displace another domain's lines. Bits of
// allowed beyond the set's ways are ignored.
func (c *Cache) Install(setIdx int, la mem.LineAddr, cls policy.AccessClass, now, readyAt int64, allowed policy.Mask) (way int, ev Evicted, evicted bool) {
	// Mark before any state can change: even a dropped fill may have aged
	// the set through the policy's victim search.
	c.markTouched(setIdx)
	base := setIdx * c.cfg.Ways
	sum := &c.sum[setIdx]
	if free := c.all &^ sum.valid & allowed; free != 0 {
		way = bits.TrailingZeros64(uint64(free))
	} else {
		evictable := c.all
		if sum.latest > now {
			evictable = 0
			for w := 0; w < c.cfg.Ways; w++ {
				if c.ready[base+w] <= now {
					evictable |= 1 << uint(w)
				}
			}
		}
		way = c.states[setIdx].Victim(evictable & allowed)
		if way < 0 {
			return -1, Evicted{}, false
		}
		ev = Evicted{Addr: c.addrs[base+way], Dirty: c.meta[base+way]&metaDirty != 0, Sharers: c.Sharers(setIdx, way)}
		evicted = true
		c.stats.Evictions++
		c.states[setIdx].OnInvalidate(way)
	}
	c.addrs[base+way] = la
	c.meta[base+way] = metaValid
	c.ready[base+way] = readyAt
	if c.sharers != nil {
		c.sharers[base+way] = 0
	}
	sum.valid |= 1 << uint(way)
	sum.latest = max(sum.latest, readyAt)
	c.states[setIdx].OnFill(way, cls)
	c.stats.Fills++
	return way, ev, evicted
}

// Invalidate removes la from the set if present (flush or back-invalidation)
// and reports whether it was present and dirty.
func (c *Cache) Invalidate(setIdx int, la mem.LineAddr) (present, dirty bool) {
	w, ok := c.Probe(setIdx, la)
	if !ok {
		return false, false
	}
	return true, c.InvalidateWay(setIdx, w)
}

// InvalidateAll invalidates every valid line, exactly as Invalidate would
// one line at a time. Only touched sets can hold lines, so only they are
// scanned.
func (c *Cache) InvalidateAll() {
	for _, s := range c.touched {
		for m := c.sum[s].valid; m != 0; m &= m - 1 {
			c.InvalidateWay(int(s), bits.TrailingZeros64(uint64(m)))
		}
	}
}

// InvalidateWay empties one valid way, found by Probe or Lookup with no
// fill or invalidation of the set since, and reports whether it was dirty.
// It is Invalidate without the second probe.
func (c *Cache) InvalidateWay(setIdx, way int) (dirty bool) {
	i := setIdx*c.cfg.Ways + way
	dirty = c.meta[i]&metaDirty != 0
	c.addrs[i] = 0
	c.meta[i] = 0
	c.ready[i] = 0
	if c.sharers != nil {
		c.sharers[i] = 0
	}
	c.sum[setIdx].valid = c.sum[setIdx].valid.Without(way)
	c.states[setIdx].OnInvalidate(way)
	c.stats.Flushes++
	return dirty
}

// AgeOf returns the replacement-policy metadata value (age/rank) of one
// way, for tracing. It does not mutate policy state and does not allocate.
func (c *Cache) AgeOf(setIdx, way int) int {
	return c.states[setIdx].AgeAt(way)
}

// View returns a copy of the set's lines plus the policy snapshot, for
// tracing and assertions. The two slices are index-aligned.
type View struct {
	Lines []Line
	Meta  []int
}

// lineAt materializes the Line view of one way.
func (c *Cache) lineAt(i int) Line {
	return Line{
		Addr:          c.addrs[i],
		Valid:         c.meta[i]&metaValid != 0,
		Dirty:         c.meta[i]&metaDirty != 0,
		Coh:           CohState(c.meta[i]&metaCohMask) >> metaCohShft,
		InFlightUntil: c.ready[i],
	}
}

// ViewSet captures the current contents of one set.
func (c *Cache) ViewSet(setIdx int) View {
	v := View{Lines: make([]Line, c.cfg.Ways), Meta: c.states[setIdx].Snapshot()}
	base := setIdx * c.cfg.Ways
	for w := range v.Lines {
		v.Lines[w] = c.lineAt(base + w)
	}
	return v
}

// Occupancy returns how many valid lines the set holds.
func (c *Cache) Occupancy(setIdx int) int {
	return bits.OnesCount64(uint64(c.sum[setIdx].valid))
}

// EvictionCandidate reports which line the policy would evict right now
// (ignoring in-flight restrictions) without mutating any policy state: it
// reads the metadata snapshot and applies the age-based scan rule directly
// (first valid way holding the maximum age/rank), which matches the
// quad-age and RRIP policies' behaviour after their aging passes.
func (c *Cache) EvictionCandidate(setIdx int) (mem.LineAddr, bool) {
	st := c.states[setIdx]
	maxAge := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if m := st.AgeAt(w); m > maxAge {
			maxAge = m
		}
	}
	if maxAge < 0 {
		return 0, false
	}
	base := setIdx * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if st.AgeAt(w) == maxAge && c.meta[base+w]&metaValid != 0 {
			return c.addrs[base+w], true
		}
	}
	return 0, false
}

// Lookup is Probe + Touch for the common hit path; it reports the way and
// whether the access hit (way is -1 on a miss).
func (c *Cache) Lookup(setIdx int, la mem.LineAddr, cls policy.AccessClass) (way int, hit bool) {
	if w, ok := c.Probe(setIdx, la); ok {
		c.Touch(setIdx, w, cls)
		return w, true
	}
	c.stats.Misses++
	return -1, false
}
