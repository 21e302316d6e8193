package hier

import (
	"fmt"
	"math/bits"
	"math/rand"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
	"leakyway/internal/policy"
	"leakyway/internal/trace"
)

// Level identifies where in the hierarchy a request was serviced.
type Level int

// Hierarchy levels, nearest first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "DRAM"
	}
	return "?"
}

// Result reports the outcome of one memory operation.
type Result struct {
	// Level is where the data was found.
	Level Level
	// Latency is the cycle cost of the operation (jittered).
	Latency int64
	// Dropped is true when an LLC fill could not displace any line
	// because every way was in flight; the data was consumed uncached.
	Dropped bool
}

// Hierarchy is one simulated processor's cache system. It is not
// goroutine-safe; the sim package serializes all access.
type Hierarchy struct {
	cfg Config
	geo *mem.Geometry
	loc *mem.Locator   // memoizing slice/set locator (not goroutine-safe)
	l1  []*cache.Cache // per core
	l2  []*cache.Cache // per core
	llc []*cache.Cache // per slice
	dir []*cache.Cache // coherence directory per slice (non-inclusive mode)
	rng *rand.Rand
	jit jitters           // per-tier samplers for cfg.Lat
	pf  []*corePrefetcher // per core, nil when disabled

	// l1SetMask/l2SetMask are Sets-1 when the set count is a power of two
	// (the common case), avoiding a hardware divide per lookup; -1 falls
	// back to the modulo path.
	l1SetMask, l2SetMask int

	// partMask holds the per-core allowed-way masks under way
	// partitioning; nil when the LLC is unpartitioned.
	partMask []policy.Mask
	// allCores has one bit per core: the sharer mask of every line on a
	// non-inclusive LLC, where private copies can outlive the LLC line.
	allCores uint64

	// tr, when non-nil, receives hier events; trAgent/trCore stamp the
	// agent context (see trace.go).
	tr      *trace.Tracer
	trAgent string
	trCore  int

	// pool is the Pool that handed the hierarchy out, nil unless it is
	// checked out of one; poolKey names the free list it goes back to.
	pool    *Pool
	poolKey poolKey
}

// anyWay lets cache.Install use every way of the set.
const anyWay = ^policy.Mask(0)

// setIndexMask returns sets-1 for power-of-two set counts, else -1.
func setIndexMask(sets int) int {
	if sets&(sets-1) == 0 {
		return sets - 1
	}
	return -1
}

// New builds a hierarchy from the config.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	geo, err := mem.NewGeometry(cfg.LLCSlices, cfg.LLCSetsPerSlice)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:       cfg,
		geo:       geo,
		loc:       geo.NewLocator(),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x1ea11e57)),
		jit:       newJitters(cfg.Lat),
		trCore:    -1,
		l1SetMask: setIndexMask(cfg.L1Sets),
		l2SetMask: setIndexMask(cfg.L2Sets),
		allCores:  ^uint64(0) >> (MaxCores - cfg.Cores),
	}
	if n := cfg.LLCPartitionWays; n > 0 {
		h.partMask = make([]policy.Mask, cfg.Cores)
		for c := range h.partMask {
			h.partMask[c] = policy.AllWays((c+1)*n) &^ policy.AllWays(c*n)
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New(cache.Config{
			Name: fmt.Sprintf("L1.%d", c), Sets: cfg.L1Sets, Ways: cfg.L1Ways, Pol: cfg.L1Policy,
		}))
		h.l2 = append(h.l2, cache.New(cache.Config{
			Name: fmt.Sprintf("L2.%d", c), Sets: cfg.L2Sets, Ways: cfg.L2Ways, Pol: cfg.L2Policy,
		}))
	}
	for s := 0; s < cfg.LLCSlices; s++ {
		h.llc = append(h.llc, cache.New(cache.Config{
			Name: fmt.Sprintf("LLC.%d", s), Sets: cfg.LLCSetsPerSlice, Ways: cfg.LLCWays, Pol: cfg.LLCPolicy,
		}))
	}
	if cfg.NonInclusive && cfg.DirectoryWays > 0 {
		for s := 0; s < cfg.LLCSlices; s++ {
			h.dir = append(h.dir, cache.New(cache.Config{
				Name: fmt.Sprintf("DIR.%d", s), Sets: cfg.LLCSetsPerSlice, Ways: cfg.DirectoryWays, Pol: policy.NewQuadAge(),
			}))
		}
	}
	if cfg.HWPrefetch.AdjacentLine || cfg.HWPrefetch.Stream {
		h.pf = make([]*corePrefetcher, cfg.Cores)
		for c := range h.pf {
			h.pf[c] = newCorePrefetcher(cfg.HWPrefetch)
		}
	}
	return h, nil
}

// MustNew is New for static configs; it panics on error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the (defaulted) configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Geometry exposes the LLC mapping.
func (h *Hierarchy) Geometry() *mem.Geometry { return h.geo }

// set-index helpers
func (h *Hierarchy) l1Set(la mem.LineAddr) int {
	if h.l1SetMask >= 0 {
		return int(uint64(la) & uint64(h.l1SetMask))
	}
	return int(uint64(la) % uint64(h.cfg.L1Sets))
}

func (h *Hierarchy) l2Set(la mem.LineAddr) int {
	if h.l2SetMask >= 0 {
		return int(uint64(la) & uint64(h.l2SetMask))
	}
	return int(uint64(la) % uint64(h.cfg.L2Sets))
}

// Lat returns the latency model. The pointer is read-only shared state; it
// lets per-operation costs be read without copying the whole Config.
func (h *Hierarchy) Lat() *LatencyConfig { return &h.cfg.Lat }

// TimerJitter returns the sampler for the latency model's TimerJit, built
// with the hierarchy, for the measurement noise of timed operations.
func (h *Hierarchy) TimerJitter() *Jitter { return &h.jit.timer }

func (h *Hierarchy) checkCore(core int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("hier: core %d out of range [0,%d)", core, h.cfg.Cores))
	}
}

// Load performs a demand load by core at cycle now.
func (h *Hierarchy) Load(core int, pa mem.PAddr, now int64) Result {
	res, _, _ := h.load(core, pa.Line(), now, nil)
	return res
}

// load is Load returning the core's L1 and L2 ways holding la afterwards;
// a way is -1 where no copy was installed, and an L1 hit reports its L1 way
// and an L2 way of -1 without looking at the L2. When the access reaches
// the LLC and at is non-nil, load stores la's LLC place afterwards in *at;
// a private hit never looks at the LLC and leaves *at alone.
func (h *Hierarchy) load(core int, la mem.LineAddr, now int64, at *llcLine) (res Result, w1, w2 int) {
	h.checkCore(core)
	lat := &h.cfg.Lat

	// L1 hit: private hit, no LLC state change (the property Prime+Scope
	// depends on: scoping the candidate from L1 leaves its LLC age alone).
	if w, ok := h.lookupTraced(h.l1[core], LevelL1, -1, h.l1Set(la), la, policy.ClassLoad, now); ok {
		return Result{Level: LevelL1, Latency: lat.L1Hit + h.jit.l1.Draw(h.rng)}, w, -1
	}
	h.hwPrefetch(core, la, now)

	// L2 hit: refill L1 (inheriting the L2 copy's coherence state),
	// still no LLC change. The core's sharer bit is already set: it
	// holds the L2 copy. A demand load that misses the L2 is not counted
	// as an L2 miss (PrefetchNTA and PrefetchT0 misses are); the
	// benchmark digests pin that accounting.
	set2 := h.l2Set(la)
	if w, ok := h.l2[core].Probe(set2, la); ok {
		st := h.l2[core].Coh(set2, w)
		h.touchTraced(h.l2[core], LevelL2, -1, set2, w, la, policy.ClassLoad, now, "")
		l := lat.L2Hit + h.jit.l2.Draw(h.rng)
		w1 = h.fillL1(core, la, policy.ClassLoad, now, now+l)
		h.setPrivCoh(core, w1, -1, la, st)
		return Result{Level: LevelL2, Latency: l}, w1, w
	}

	// Past the private caches: one LLC probe decides hit or miss and
	// yields the line's sharer mask. A demand hit updates the line's age
	// (decrement).
	var place llcLine
	place.slice, place.set = h.loc.Locate(la)
	place.way, _ = h.lookupTraced(h.llc[place.slice], LevelLLC, place.slice, place.set, la, policy.ClassLoad, now)

	// Resolve coherence with the other cores that may hold a copy (a
	// remote Modified copy forwards with a latency penalty; any remote
	// copy makes the requester's fill Shared rather than Exclusive).
	extra, sharedRem := h.snoopLoad(core, la, place)
	st := cache.CohExclusive
	if sharedRem {
		st = cache.CohShared
	}
	res, w1, w2, place.way = h.fillFromOuter(core, place.slice, place.set, place.way, la, policy.ClassLoad, extra, now)
	h.setPrivCoh(core, w1, w2, la, st)
	if at != nil {
		*at = place
	}
	return res, w1, w2
}

// fillFromOuter completes an access that missed core's private caches,
// given the LLC lookup's way (-1 on a miss). An LLC hit costs the LLC
// latency; a miss costs DRAM's and fills the inclusive LLC first. extra is
// added to either. Unless the LLC fill is dropped, core becomes a sharer
// of the line, which is filled into its L2 and L1; their ways and the LLC
// way are returned (-1 where no copy was installed).
func (h *Hierarchy) fillFromOuter(core, slice, set, way int, la mem.LineAddr, cls policy.AccessClass, extra, now int64) (res Result, w1, w2, llcWay int) {
	lat := &h.cfg.Lat
	if way >= 0 {
		res = Result{Level: LevelLLC, Latency: lat.LLCHit + h.jit.llc.Draw(h.rng) + extra}
	} else {
		res = Result{Level: LevelMem, Latency: lat.Mem + h.jit.mem.Draw(h.rng) + extra}
		if way = h.fillLLC(core, slice, set, la, cls, now, now+res.Latency); way < 0 {
			res.Dropped = true
			return res, -1, -1, -1
		}
	}
	h.llc[slice].AddSharer(set, way, core)
	w2 = h.fillL2(core, la, cls, now, now+res.Latency)
	w1 = h.fillL1(core, la, cls, now, now+res.Latency)
	return res, w1, w2, way
}

// Store is a demand store: it obtains the line in Modified state. A hit on
// a Shared copy pays a remote-invalidation round; a miss performs a
// read-for-ownership (load + invalidate). The resulting timing differences
// are the coherence side channel of the paper's reference [67].
func (h *Hierarchy) Store(core int, pa mem.PAddr, now int64) Result {
	h.checkCore(core)
	la := pa.Line()
	if w, ok := h.l1[core].Probe(h.l1Set(la), la); ok {
		st := h.l1[core].Coh(h.l1Set(la), w)
		h.touchTraced(h.l1[core], LevelL1, -1, h.l1Set(la), w, la, policy.ClassLoad, now, "store")
		l := h.cfg.Lat.L1Hit + h.jit.l1.Draw(h.rng)
		if st == cache.CohShared {
			l += h.invalidateRemote(core, la, h.locateLLC(la))
		}
		w2, _ := h.l2[core].Probe(h.l2Set(la), la)
		h.setPrivCoh(core, w, w2, la, cache.CohModified)
		return Result{Level: LevelL1, Latency: l}
	}
	at := llcLine{slice: -1}
	res, w1, w2 := h.load(core, la, now, &at)
	if at.slice < 0 { // an L2 hit: load never looked at the LLC
		at = h.locateLLC(la)
	}
	res.Latency += h.invalidateRemote(core, la, at)
	h.setPrivCoh(core, w1, w2, la, cache.CohModified)
	return res
}

// PrefetchNTA performs a non-temporal software prefetch, the instruction the
// paper reverse-engineers:
//
//   - miss everywhere → the line is installed in the LLC *as the eviction
//     candidate* (quad-age 3; Property #1) and in the requesting core's L1,
//     bypassing L2;
//   - LLC hit → the line's LLC age is NOT updated (Property #2), and the
//     line is pulled into L1;
//   - latency depends on where the line was found (Property #3).
func (h *Hierarchy) PrefetchNTA(core int, pa mem.PAddr, now int64) Result {
	h.checkCore(core)
	la := pa.Line()
	lat := &h.cfg.Lat

	if _, ok := h.lookupTraced(h.l1[core], LevelL1, -1, h.l1Set(la), la, policy.ClassNTA, now); ok {
		return Result{Level: LevelL1, Latency: lat.L1Hit + h.jit.l1.Draw(h.rng)}
	}
	if _, ok := h.lookupTraced(h.l2[core], LevelL2, -1, h.l2Set(la), la, policy.ClassNTA, now); ok {
		l := lat.L2Hit + h.jit.l2.Draw(h.rng)
		h.fillL1(core, la, policy.ClassNTA, now, now+l)
		return Result{Level: LevelL2, Latency: l}
	}
	slice, set := h.loc.Locate(la)
	if way, ok := h.lookupTraced(h.llc[slice], LevelLLC, slice, set, la, policy.ClassNTA, now); ok {
		// ClassNTA hit: QuadAge leaves the age untouched (Property #2).
		l := lat.LLCHit + h.jit.llc.Draw(h.rng)
		h.llc[slice].AddSharer(set, way, core)
		h.fillL1(core, la, policy.ClassNTA, now, now+l)
		return Result{Level: LevelLLC, Latency: l}
	}
	l := lat.Mem + h.jit.mem.Draw(h.rng)
	if h.cfg.NonInclusive {
		// On non-inclusive parts PREFETCHNTA brings the line only into
		// the requesting core's L1 (and the coherence directory) — the
		// LLC never sees it, which is why NTP+NTP does not transfer to
		// those platforms (Section VI-B).
		h.fillL1(core, la, policy.ClassNTA, now, now+l)
		return Result{Level: LevelMem, Latency: l}
	}
	way := h.fillLLC(core, slice, set, la, policy.ClassNTA, now, now+l)
	if way < 0 {
		return Result{Level: LevelMem, Latency: l, Dropped: true}
	}
	h.llc[slice].AddSharer(set, way, core)
	h.fillL1(core, la, policy.ClassNTA, now, now+l)
	return Result{Level: LevelMem, Latency: l}
}

// PrefetchT0 performs a temporal software prefetch: identical routing to a
// demand load (fills all levels, normal insertion age), used as a contrast
// in the characterization experiments.
func (h *Hierarchy) PrefetchT0(core int, pa mem.PAddr, now int64) Result {
	h.checkCore(core)
	la := pa.Line()
	lat := &h.cfg.Lat
	if _, ok := h.lookupTraced(h.l1[core], LevelL1, -1, h.l1Set(la), la, policy.ClassT0, now); ok {
		return Result{Level: LevelL1, Latency: lat.L1Hit + h.jit.l1.Draw(h.rng)}
	}
	if _, ok := h.lookupTraced(h.l2[core], LevelL2, -1, h.l2Set(la), la, policy.ClassT0, now); ok {
		l := lat.L2Hit + h.jit.l2.Draw(h.rng)
		h.fillL1(core, la, policy.ClassT0, now, now+l)
		return Result{Level: LevelL2, Latency: l}
	}
	slice, set := h.loc.Locate(la)
	way, _ := h.lookupTraced(h.llc[slice], LevelLLC, slice, set, la, policy.ClassT0, now)
	res, _, _, _ := h.fillFromOuter(core, slice, set, way, la, policy.ClassT0, 0, now)
	return res
}

// Flush is CLFLUSH: it removes the line from every cache in the system and
// reports a latency that depends on whether (and how) the line was cached,
// which is what Flush+Flush-style timing keys on.
func (h *Hierarchy) Flush(pa mem.PAddr, now int64) Result {
	la := pa.Line()
	lat := &h.cfg.Lat
	present, dirty := false, false
	slice, set := h.loc.Locate(la)
	way, _ := h.llc[slice].Probe(set, la)
	for m := h.sharers(slice, set, way); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if p, d := h.l1[c].Invalidate(h.l1Set(la), la); p {
			present, dirty = true, dirty || d
		}
		if p, d := h.l2[c].Invalidate(h.l2Set(la), la); p {
			present, dirty = true, dirty || d
		}
	}
	if way >= 0 {
		present, dirty = true, h.llc[slice].InvalidateWay(set, way) || dirty
	}
	h.dirDrop(la)
	base := lat.FlushAbsent
	level := LevelMem
	switch {
	case dirty:
		base = lat.FlushDirty
		level = LevelLLC
	case present:
		base = lat.FlushPresent
		level = LevelLLC
	}
	if h.tr.On(trace.PkgHier) {
		e := h.hierEvent("flush", LevelLLC, slice, set, now)
		e.Addr = uint64(la)
		switch {
		case dirty:
			e.Note = "dirty"
		case present:
			e.Note = "present"
		default:
			e.Note = "absent"
		}
		h.tr.Emit(e)
	}
	return Result{Level: level, Latency: base + h.jit.flush.Draw(h.rng)}
}

// FenceLatency returns the cost of an LFENCE.
func (h *Hierarchy) FenceLatency() int64 { return h.cfg.Lat.Fence }

// The fill helpers below install with cache.Install: each follows a miss
// for la in the same set, and nothing in between installs la there (the
// hardware prefetcher never targets the demand line itself).

// fillL1 installs la into core's L1 (evictions are silent; a dirty victim
// propagates its dirtiness to an L2/LLC copy when present) and returns its
// way, -1 when the fill was dropped. The coherence directory, when present,
// tracks the fill.
func (h *Hierarchy) fillL1(core int, la mem.LineAddr, cls policy.AccessClass, now, ready int64) int {
	meta := h.fillMeta(h.l1[core], h.l1Set(la))
	way, ev, evicted := h.l1[core].Install(h.l1Set(la), la, cls, now, ready, anyWay)
	h.traceFill(h.l1[core], LevelL1, -1, h.l1Set(la), la, way, ev, evicted, meta, now)
	if evicted && ev.Dirty {
		h.propagateDirty(core, ev.Addr)
	}
	h.dirTouch(la, cls, now, ready)
	return way
}

// fillL2 installs la into core's L2 (non-inclusive: evictions do not touch
// the L1) and returns its way, -1 when the fill was dropped.
func (h *Hierarchy) fillL2(core int, la mem.LineAddr, cls policy.AccessClass, now, ready int64) int {
	meta := h.fillMeta(h.l2[core], h.l2Set(la))
	way, ev, evicted := h.l2[core].Install(h.l2Set(la), la, cls, now, ready, anyWay)
	h.traceFill(h.l2[core], LevelL2, -1, h.l2Set(la), la, way, ev, evicted, meta, now)
	if evicted && ev.Dirty {
		h.propagateDirty(core, ev.Addr)
	}
	return way
}

// propagateDirty marks a written-back victim's outer copy dirty.
func (h *Hierarchy) propagateDirty(core int, la mem.LineAddr) {
	if w, ok := h.l2[core].Probe(h.l2Set(la), la); ok {
		h.l2[core].MarkDirty(h.l2Set(la), w)
		return
	}
	slice, set := h.loc.Locate(la)
	if w, ok := h.llc[slice].Probe(set, la); ok {
		h.llc[slice].MarkDirty(set, w)
	}
}

// fillLLC installs la into LLC set (slice, set) on behalf of core and
// enforces inclusion: the displaced line is back-invalidated from the
// private caches of its sharers. Under way partitioning the fill is
// restricted to the core's own ways. It returns the filled way, whose
// sharer mask starts empty, or -1 when the fill was dropped because no
// permitted way could be replaced.
func (h *Hierarchy) fillLLC(core, slice, set int, la mem.LineAddr, cls policy.AccessClass, now, ready int64) int {
	allowed := anyWay
	if h.partMask != nil {
		allowed = h.partMask[core]
	}
	meta := h.fillMeta(h.llc[slice], set)
	way, ev, evicted := h.llc[slice].Install(set, la, cls, now, ready, allowed)
	h.traceFill(h.llc[slice], LevelLLC, slice, set, la, way, ev, evicted, meta, now)
	if evicted {
		h.backInvalidate(ev, now)
	}
	return way
}

// sharers returns the cores that may hold a private copy of the line in
// LLC way (slice, set, way), way -1 meaning an LLC miss. On an inclusive
// LLC that is the line's core-valid mask — a superset of the cores holding
// a copy, since every private fill sets the filling core's bit, and 0 on a
// miss, since inclusion leaves no private copy of an uncached line. On a
// non-inclusive LLC private copies can outlive the LLC line, so every core
// may hold one.
func (h *Hierarchy) sharers(slice, set, way int) uint64 {
	if h.cfg.NonInclusive {
		return h.allCores
	}
	if way < 0 {
		return 0
	}
	return h.llc[slice].Sharers(set, way)
}

// backInvalidate removes a line evicted from the inclusive LLC from its
// sharers' private caches — the mechanism that makes cross-core LLC attacks
// observable at all. Non-inclusive LLCs skip it: private copies outlive the
// LLC line.
func (h *Hierarchy) backInvalidate(ev cache.Evicted, now int64) {
	if h.cfg.NonInclusive {
		return
	}
	la := ev.Addr
	traced := h.tr.On(trace.PkgHier)
	for m := ev.Sharers; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		p1, _ := h.l1[c].Invalidate(h.l1Set(la), la)
		p2, _ := h.l2[c].Invalidate(h.l2Set(la), la)
		if !traced {
			continue
		}
		if p1 {
			e := h.hierEvent("back-inval", LevelL1, -1, h.l1Set(la), now)
			e.Core, e.Addr = c, uint64(la)
			h.tr.Emit(e)
		}
		if p2 {
			e := h.hierEvent("back-inval", LevelL2, -1, h.l2Set(la), now)
			e.Core, e.Addr = c, uint64(la)
			h.tr.Emit(e)
		}
	}
}
