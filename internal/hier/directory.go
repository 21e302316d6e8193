package hier

import (
	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

// Coherence directory for the non-inclusive (server) configuration. Intel's
// non-inclusive parts track private-cache residency in a sliced,
// set-associative snoop-filter directory; evicting a directory entry
// back-invalidates the tracked line from every private cache — the lever
// behind Yan et al.'s directory attacks.
//
// Section VI-B of the paper conjectures: "if prefetched data are easier to
// be evicted from a set-associative coherence directory than loaded data,
// it may be possible to build fast set conflicts in the directory, resulting
// in a directory version of NTP+NTP", and leaves verification as future
// work. Setting DirectoryWays > 0 with DirectoryNTAIsVictim true implements
// exactly that hypothesis (quad-age directory entries, PREFETCHNTA inserted
// as the eviction candidate) so the conjecture can be tested end to end.

// dirFill records la as resident in some private cache; an evicted
// directory entry back-invalidates its line everywhere.
func (h *Hierarchy) dirFill(la mem.LineAddr, cls policy.AccessClass, now, ready int64) {
	if h.dir == nil {
		return
	}
	if !h.cfg.DirectoryNTAIsVictim && cls == policy.ClassNTA {
		// Without the conjectured behaviour the directory treats NTA
		// entries like demand entries.
		cls = policy.ClassLoad
	}
	slice, set := h.loc.Locate(la)
	_, ev, evicted := h.dir[slice].Fill(set, la, cls, now, ready)
	if evicted {
		for c := 0; c < h.cfg.Cores; c++ {
			h.l1[c].Invalidate(h.l1Set(ev.Addr), ev.Addr)
			h.l2[c].Invalidate(h.l2Set(ev.Addr), ev.Addr)
		}
	}
}

// dirTouch refreshes la's directory entry on a private fill when it already
// exists (same semantics as the LLC: demand touches rejuvenate, NTA touches
// do not).
func (h *Hierarchy) dirTouch(la mem.LineAddr, cls policy.AccessClass, now, ready int64) {
	if h.dir == nil {
		return
	}
	slice, set := h.loc.Locate(la)
	if w, ok := h.dir[slice].Probe(set, la); ok {
		h.dir[slice].Touch(set, w, cls)
		return
	}
	h.dirFill(la, cls, now, ready)
}

// dirDrop removes la's directory entry (flush path).
func (h *Hierarchy) dirDrop(la mem.LineAddr) {
	if h.dir == nil {
		return
	}
	slice, set := h.loc.Locate(la)
	h.dir[slice].Invalidate(set, la)
}

// DirPresent reports whether la is tracked by the directory (introspection).
func (h *Hierarchy) DirPresent(pa mem.PAddr) bool {
	if h.dir == nil {
		return false
	}
	la := pa.Line()
	slice, set := h.loc.Locate(la)
	_, ok := h.dir[slice].Probe(set, la)
	return ok
}
