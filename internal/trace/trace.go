// Package trace is the simulator's structured, seed-deterministic event
// bus. Every subsystem — the cache hierarchy (hier), the scheduler (sim),
// the fault injector (fault) and the covert-channel protocols (channel) —
// emits typed events into a per-machine Tracer; exporters render the
// collected streams as Chrome trace-event JSON (loadable in Perfetto) or
// as compact JSONL, and the diagnostics layer turns channel events into an
// eye-diagram summary with per-bit error attribution.
//
// The design contract is the nil fast path: a nil *Tracer is the disabled
// state, every method is safe on it, and emit sites guard with On() before
// building an Event, so a run without tracing performs zero allocations
// and no measurable extra work. Determinism is inherited from the
// simulator: each Tracer is owned by exactly one sim.Machine, whose agents
// are resumed one at a time in global clock order, so a buffer's event
// sequence is a pure function of the machine's seed. The Collector orders
// buffers by label, never by creation time, which is what keeps a traced
// parallel experiment run byte-identical for any worker count.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Mask selects which subsystems a tracer records.
type Mask uint8

// Subsystem bits. PkgAll is the default when no filter is given.
const (
	PkgHier Mask = 1 << iota
	PkgSim
	PkgFault
	PkgChannel

	PkgAll = PkgHier | PkgSim | PkgFault | PkgChannel
)

// pkgNames maps filter-flag names to bits, in canonical order.
var pkgNames = []struct {
	name string
	bit  Mask
}{
	{"hier", PkgHier},
	{"sim", PkgSim},
	{"fault", PkgFault},
	{"channel", PkgChannel},
}

// ParseMask parses a comma-separated subsystem list ("hier,channel").
// The empty string means everything.
func ParseMask(s string) (Mask, error) {
	if strings.TrimSpace(s) == "" {
		return PkgAll, nil
	}
	var m Mask
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for _, p := range pkgNames {
			if p.name == part {
				m |= p.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown subsystem %q (want a comma-separated subset of hier,sim,fault,channel)", part)
		}
	}
	return m, nil
}

// maskOf returns the bit for an event's Pkg string (0 for unknown).
func maskOf(pkg string) Mask {
	for _, p := range pkgNames {
		if p.name == pkg {
			return p.bit
		}
	}
	return 0
}

// Event is one structured occurrence on the virtual cycle clock. Fields
// beyond Time/Pkg/Kind are kind-specific; integer fields default to -1
// ("not applicable") via E, so zero values like way 0 stay unambiguous.
type Event struct {
	// Time is the virtual cycle at which the event occurred.
	Time int64
	// Pkg is the emitting subsystem: "hier", "sim", "fault" or "channel".
	Pkg string
	// Kind names the event within its subsystem ("fill", "rx-bit", ...).
	Kind string
	// Agent is the simulated agent on whose behalf the event occurred.
	Agent string
	// Core is the physical core involved, -1 when not core-specific.
	Core int

	// Cache-hierarchy placement (hier events).
	Level string // "L1", "L2", "LLC"
	Slice int    // LLC slice, -1 for private levels
	Set   int    // set index
	Way   int    // way index, -1 when unknown (e.g. a miss)
	// AgeBefore and AgeAfter are the replacement ages around the event,
	// -1 when unknown (policy-specific meaning, quad-age for the LLC).
	AgeBefore, AgeAfter int
	// Addr is the physical line address involved (hier events).
	Addr uint64

	// Channel protocol placement.
	Slot int // slot index or frame sequence number, -1 when n/a
	Bit  int // bit value 0/1, -1 when n/a

	// Lat is a measured latency in cycles; Dur a window length; Val a
	// kind-specific scalar (threshold, target core, new interval, ...).
	Lat, Dur, Val int64
	// Note carries short free-form detail (scenario name, CRC error, ...).
	Note string
}

// E starts an event of the given subsystem and kind at cycle t, with all
// placement fields marked not-applicable.
func E(pkg, kind string, t int64) Event {
	return Event{
		Time: t, Pkg: pkg, Kind: kind,
		Core: -1, Slice: -1, Set: -1, Way: -1,
		AgeBefore: -1, AgeAfter: -1, Slot: -1, Bit: -1,
	}
}

// Buffer is one machine's ordered event stream. It is not goroutine-safe:
// a buffer must be fed by a single sim.Machine, whose scheduler serializes
// all agents (the Collector hands out one buffer per label for exactly
// this reason).
type Buffer struct {
	label  string
	events []Event
}

// Label returns the buffer's collector label.
func (b *Buffer) Label() string { return b.label }

// Events returns the recorded events in emission order. The slice is the
// buffer's backing store; callers must not mutate it.
func (b *Buffer) Events() []Event { return b.events }

// Tracer is the handle emit sites hold. A nil Tracer is the disabled
// state: On reports false and Emit is a no-op, so untraced runs never
// construct events. A tracer is a buffer plus the mask of subsystems it
// records.
type Tracer struct {
	buf  *Buffer
	mask Mask
}

// New returns a standalone tracer recording into a fresh buffer — the
// entry point for library users tracing a single machine outside the
// experiment engine.
func New(label string, mask Mask) *Tracer {
	return &Tracer{buf: &Buffer{label: label}, mask: mask}
}

// On reports whether any of the given subsystem bits are being recorded.
// Emit sites call it before building an Event.
func (t *Tracer) On(m Mask) bool { return t != nil && t.mask&m != 0 }

// Emit records the event if its subsystem is enabled.
func (t *Tracer) Emit(e Event) {
	if !t.On(maskOf(e.Pkg)) {
		return
	}
	t.buf.events = append(t.buf.events, e)
}

// Buffer returns the tracer's underlying buffer (nil for a nil tracer).
func (t *Tracer) Buffer() *Buffer {
	if t == nil {
		return nil
	}
	return t.buf
}

// Collector aggregates the buffers of one traced run. Tracer creation is
// concurrency-safe (parallel experiment shards register buffers as they
// start), but every buffer is still single-writer. Export order is sorted
// by label, so the rendered trace does not depend on scheduling.
type Collector struct {
	mu   sync.Mutex
	bufs map[string]*Buffer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{bufs: map[string]*Buffer{}}
}

// Tracer creates the buffer for label and returns a tracer recording into
// it with the given mask. Labels must be unique within a run — they are
// the deterministic identity of a machine's stream — so a duplicate label
// panics rather than silently interleaving two machines' events.
func (c *Collector) Tracer(label string, mask Mask) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.bufs[label]; dup {
		panic(fmt.Sprintf("trace: duplicate buffer label %q", label))
	}
	b := &Buffer{label: label}
	c.bufs[label] = b
	return &Tracer{buf: b, mask: mask}
}

// Buffers returns all buffers sorted by label.
func (c *Collector) Buffers() []*Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Buffer, 0, len(c.bufs))
	for _, b := range c.bufs {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// TotalEvents returns the event count across all buffers.
func (c *Collector) TotalEvents() int {
	n := 0
	for _, b := range c.Buffers() {
		n += len(b.events)
	}
	return n
}

// CountByPrefix aggregates event counts by the first '/'-separated label
// segment — with the experiment engine's labeling convention, that is the
// experiment ID. Keys are returned sorted.
func (c *Collector) CountByPrefix() ([]string, map[string]int) {
	counts := map[string]int{}
	for _, b := range c.Buffers() {
		key := b.label
		if i := strings.IndexByte(key, '/'); i >= 0 {
			key = key[:i]
		}
		counts[key] += len(b.events)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, counts
}
