package hier

import (
	"math/bits"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

// Coherence: the private caches keep MESI-style states so that cross-core
// sharing behaves (and times) like real silicon. A demand load that finds
// the line Modified in another core's private cache pays a cache-to-cache
// forwarding penalty and downgrades the owner to Shared; a store to a
// Shared line pays an invalidation round. These timing differences are
// themselves a side channel (Yao et al., the paper's reference [67]) and
// the attack package demonstrates it.

// snoopLoad resolves a demand read that missed the requester's private
// caches: remote Modified copies are downgraded to Shared (their dirtiness
// propagating to the LLC copy), remote Exclusive copies degrade to Shared.
// Only the cores in mask (the line's sharers, see Hierarchy.sharers) are
// snooped, in ascending order. It returns the extra forwarding latency and
// whether any remote copy exists (which decides Shared vs Exclusive fill
// for the requester).
func (h *Hierarchy) snoopLoad(core int, la mem.LineAddr, mask uint64) (extra int64, shared bool) {
	l1Set, l2Set := h.l1Set(la), h.l2Set(la)
	for m := mask &^ (1 << uint(core)); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		found, modified := h.snoopPrivate(h.l1[c], l1Set, la)
		if found {
			shared = true
			if modified {
				extra = h.cfg.Lat.CohTransfer
			}
		}
		found, modified = h.snoopPrivate(h.l2[c], l2Set, la)
		if found {
			shared = true
			if modified {
				extra = h.cfg.Lat.CohTransfer
			}
		}
	}
	return extra, shared
}

// snoopPrivate downgrades one private cache's copy of la for a remote load.
// It reports whether a copy existed and whether it was Modified (in which
// case the dirty data was forwarded into the LLC copy).
func (h *Hierarchy) snoopPrivate(pc *cache.Cache, set int, la mem.LineAddr) (found, modified bool) {
	w, ok := pc.Probe(set, la)
	if !ok {
		return false, false
	}
	switch pc.Coh(set, w) {
	case cache.CohModified:
		// Forward dirty data; the LLC copy absorbs the dirtiness and
		// the owner keeps a Shared copy.
		h.markLLCDirty(la)
		pc.SetCoh(set, w, cache.CohShared)
		return true, true
	case cache.CohExclusive:
		pc.SetCoh(set, w, cache.CohShared)
	}
	return true, false
}

// invalidateRemote removes every other core's private copy of la (the RFO /
// upgrade step of a store), visiting only the line's sharers. It returns
// the invalidation latency if any copy existed. A remote Modified copy
// first forwards its data.
func (h *Hierarchy) invalidateRemote(core int, la mem.LineAddr) (extra int64) {
	slice, set := h.loc.Locate(la)
	way, _ := h.llc[slice].Probe(set, la)
	for m := h.sharers(slice, set, way) &^ (1 << uint(core)); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if w, ok := h.l1[c].Probe(h.l1Set(la), la); ok {
			if h.l1[c].Coh(h.l1Set(la), w) == cache.CohModified {
				h.markLLCDirty(la)
				extra = h.cfg.Lat.CohTransfer
			}
			h.l1[c].Invalidate(h.l1Set(la), la)
			if extra == 0 {
				extra = h.cfg.Lat.CohInval
			}
		}
		if w, ok := h.l2[c].Probe(h.l2Set(la), la); ok {
			if h.l2[c].Coh(h.l2Set(la), w) == cache.CohModified {
				h.markLLCDirty(la)
				extra = h.cfg.Lat.CohTransfer
			}
			h.l2[c].Invalidate(h.l2Set(la), la)
			if extra == 0 {
				extra = h.cfg.Lat.CohInval
			}
		}
	}
	return extra
}

// setPrivCoh sets the coherence state on the requester's private copies of
// la, held in L1 way w1 and L2 way w2 (-1 where the core holds no copy).
func (h *Hierarchy) setPrivCoh(core, w1, w2 int, la mem.LineAddr, st cache.CohState) {
	if w1 >= 0 {
		h.l1[core].SetCoh(h.l1Set(la), w1, st)
		if st == cache.CohModified {
			h.l1[core].MarkDirty(h.l1Set(la), w1)
		}
	}
	if w2 >= 0 {
		h.l2[core].SetCoh(h.l2Set(la), w2, st)
	}
}

// markLLCDirty flags la's LLC copy as holding forwarded dirty data.
func (h *Hierarchy) markLLCDirty(la mem.LineAddr) {
	slice, set := h.loc.Locate(la)
	if w, ok := h.llc[slice].Probe(set, la); ok {
		h.llc[slice].MarkDirty(set, w)
	}
}

// PrivCoh reports core's coherence state for the line (introspection; the
// bool is false when the core holds no copy).
func (h *Hierarchy) PrivCoh(core int, pa mem.PAddr) (cache.CohState, bool) {
	h.checkCore(core)
	la := pa.Line()
	if w, ok := h.l1[core].Probe(h.l1Set(la), la); ok {
		return h.l1[core].Coh(h.l1Set(la), w), true
	}
	if w, ok := h.l2[core].Probe(h.l2Set(la), la); ok {
		return h.l2[core].Coh(h.l2Set(la), w), true
	}
	return 0, false
}
