package hier

import (
	"fmt"
	"strings"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

// Present reports whether the line holding pa is currently cached at the
// given level (any core's private cache for L1/L2).
func (h *Hierarchy) Present(level Level, pa mem.PAddr) bool {
	la := pa.Line()
	switch level {
	case LevelL1:
		for c := 0; c < h.cfg.Cores; c++ {
			if _, ok := h.l1[c].Probe(h.l1Set(la), la); ok {
				return true
			}
		}
	case LevelL2:
		for c := 0; c < h.cfg.Cores; c++ {
			if _, ok := h.l2[c].Probe(h.l2Set(la), la); ok {
				return true
			}
		}
	case LevelLLC:
		slice, set := h.loc.Locate(la)
		_, ok := h.llc[slice].Probe(set, la)
		return ok
	}
	return false
}

// PresentInCore reports whether core's private cache at the given level
// holds the line.
func (h *Hierarchy) PresentInCore(level Level, core int, pa mem.PAddr) bool {
	h.checkCore(core)
	la := pa.Line()
	switch level {
	case LevelL1:
		_, ok := h.l1[core].Probe(h.l1Set(la), la)
		return ok
	case LevelL2:
		_, ok := h.l2[core].Probe(h.l2Set(la), la)
		return ok
	}
	return false
}

// SetView is a snapshot of the LLC set containing a probe address, used by
// the paper's state-walk figures and by tests asserting on ages.
type SetView struct {
	Slice int
	Set   int
	View  cache.View
}

// LLCSet snapshots the LLC set that pa maps to.
func (h *Hierarchy) LLCSet(pa mem.PAddr) SetView {
	la := pa.Line()
	slice, set := h.loc.Locate(la)
	return SetView{Slice: slice, Set: set, View: h.llc[slice].ViewSet(set)}
}

// LLCAge returns the quad-age of pa's line in the LLC, or -1 if absent.
func (h *Hierarchy) LLCAge(pa mem.PAddr) int {
	la := pa.Line()
	slice, set := h.loc.Locate(la)
	w, ok := h.llc[slice].Probe(set, la)
	if !ok {
		return -1
	}
	return h.llc[slice].ViewSet(set).Meta[w]
}

// LLCCandidate returns the line the LLC replacement policy would evict next
// from pa's set, matching the paper's "eviction candidate" notion.
func (h *Hierarchy) LLCCandidate(pa mem.PAddr) (mem.LineAddr, bool) {
	la := pa.Line()
	slice, set := h.loc.Locate(la)
	return h.llc[slice].EvictionCandidate(set)
}

// LLCOccupancy returns the number of valid ways in pa's LLC set.
func (h *Hierarchy) LLCOccupancy(pa mem.PAddr) int {
	la := pa.Line()
	slice, set := h.loc.Locate(la)
	return h.llc[slice].Occupancy(set)
}

// Format renders the set like the paper's figures: each way as "name:age",
// left to right in replacement-scan order. names maps line addresses to
// labels; unlabeled lines render as "·".
func (v SetView) Format(names map[mem.LineAddr]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slice %d set %4d |", v.Slice, v.Set)
	for w, ln := range v.View.Lines {
		label := "—"
		if ln.Valid {
			label = "·"
			if n, ok := names[ln.Addr]; ok {
				label = n
			}
		}
		age := v.View.Meta[w]
		if ln.Valid {
			fmt.Fprintf(&b, " %s:%d", label, age)
		} else {
			fmt.Fprintf(&b, " %s", label)
		}
	}
	b.WriteString(" |")
	return b.String()
}

// FlushAll empties every cache in the hierarchy, the coherence directory
// included (test helper for preparing clean states without touching
// replacement metadata beyond invalidation).
func (h *Hierarchy) FlushAll() {
	for _, level := range [][]*cache.Cache{h.l1, h.l2, h.llc, h.dir} {
		for _, c := range level {
			c.InvalidateAll()
		}
	}
}

// L1Stats, L2Stats and LLCStats expose event counters for experiments.
func (h *Hierarchy) L1Stats(core int) cache.Stats { h.checkCore(core); return h.l1[core].Stats() }

// L2Stats returns core's L2 counters.
func (h *Hierarchy) L2Stats(core int) cache.Stats { h.checkCore(core); return h.l2[core].Stats() }

// LLCStats returns the summed counters across slices.
func (h *Hierarchy) LLCStats() cache.Stats {
	var total cache.Stats
	for _, s := range h.llc {
		st := s.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Fills += st.Fills
		total.Flushes += st.Flushes
	}
	return total
}

// LLCSlices returns the number of LLC slices.
func (h *Hierarchy) LLCSlices() int { return len(h.llc) }

// LLCSliceStats returns one slice's counters — the per-slice view the
// pollution and slice-hash experiments need (LLCStats only exposes the
// sum across slices).
func (h *Hierarchy) LLCSliceStats(slice int) cache.Stats {
	if slice < 0 || slice >= len(h.llc) {
		panic(fmt.Sprintf("hier: LLC slice %d out of range [0,%d)", slice, len(h.llc)))
	}
	return h.llc[slice].Stats()
}
