package hier

import (
	"leakyway/internal/cache"
	"leakyway/internal/mem"
	"leakyway/internal/policy"
	"leakyway/internal/trace"
)

// Tracing hooks. The hierarchy itself has no notion of agents; the sim
// layer stamps the current agent/core context before resuming an agent so
// hier events land on the right Perfetto track. All hooks are nil-safe:
// with no tracer attached every helper degenerates to the plain cache
// call, and no Event is ever constructed.

// SetTracer attaches an event sink to the hierarchy. A nil tracer
// disables hier tracing entirely.
func (h *Hierarchy) SetTracer(t *trace.Tracer) { h.tr = t }

// SetTraceAgent records the agent on whose behalf subsequent operations
// run. The scheduler calls it at every resume; standalone hierarchy users
// can leave it unset (events then carry no agent and core -1).
func (h *Hierarchy) SetTraceAgent(name string, core int) {
	h.trAgent, h.trCore = name, core
}

// hierEvent starts a hier event stamped with the current agent context.
func (h *Hierarchy) hierEvent(kind string, lvl Level, slice, set int, now int64) trace.Event {
	e := trace.E("hier", kind, now)
	e.Agent, e.Core = h.trAgent, h.trCore
	e.Level, e.Slice, e.Set = lvl.String(), slice, set
	return e
}

// lookupTraced is cache.Lookup plus hit/miss events carrying the way and
// the replacement age before/after the touch. The untraced path is
// exactly c.Lookup — same stats, same policy updates.
func (h *Hierarchy) lookupTraced(c *cache.Cache, lvl Level, slice, set int, la mem.LineAddr, cls policy.AccessClass, now int64) (way int, hit bool) {
	if !h.tr.On(trace.PkgHier) {
		return c.Lookup(set, la, cls)
	}
	way, present := c.Probe(set, la)
	ageBefore := -1
	if present {
		ageBefore = c.AgeOf(set, way)
	}
	way, hit = c.Lookup(set, la, cls)
	var e trace.Event
	if hit {
		e = h.hierEvent("hit", lvl, slice, set, now)
		e.Way, e.AgeBefore, e.AgeAfter = way, ageBefore, c.AgeOf(set, way)
	} else {
		e = h.hierEvent("miss", lvl, slice, set, now)
	}
	e.Addr = uint64(la)
	h.tr.Emit(e)
	return way, hit
}

// fillMeta snapshots a set's replacement ages before a fill. It returns
// nil when hier tracing is off, which is the signal traceFill keys on.
func (h *Hierarchy) fillMeta(c *cache.Cache, set int) []int {
	if !h.tr.On(trace.PkgHier) {
		return nil
	}
	return c.ViewSet(set).Meta
}

// traceFill emits the evict/fill (or fill-drop) events for one completed
// Fill into way (-1 when dropped) of c, given the pre-fill age snapshot
// from fillMeta. Only LLC fills report a drop; a dropped private fill
// emits nothing.
func (h *Hierarchy) traceFill(c *cache.Cache, lvl Level, slice, set int, la mem.LineAddr, way int, ev cache.Evicted, evicted bool, meta []int, now int64) {
	if meta == nil {
		return
	}
	if way < 0 {
		if lvl == LevelLLC {
			e := h.hierEvent("fill-drop", lvl, slice, set, now)
			e.Addr = uint64(la)
			h.tr.Emit(e)
		}
		return
	}
	if evicted {
		e := h.hierEvent("evict", lvl, slice, set, now)
		e.Way, e.AgeBefore, e.Addr = way, meta[way], uint64(ev.Addr)
		h.tr.Emit(e)
	}
	e := h.hierEvent("fill", lvl, slice, set, now)
	e.Way, e.AgeBefore, e.AgeAfter, e.Addr = way, meta[way], c.AgeOf(set, way), uint64(la)
	h.tr.Emit(e)
}
