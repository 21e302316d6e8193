package core

import (
	"fmt"

	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// The oracles below stage experiments that are *not* about congruence
// discovery: they allocate memory in an agent's address space and use the
// machine's geometry to pick lines that collide (or deliberately do not
// collide) in the LLC. The realistic, timing-only construction lives in
// package evset; the paper likewise assumes eviction sets "constructed with
// methods from prior work" for its channel experiments.

// CongruentLines returns n distinct virtual lines in as that are
// LLC-congruent with target (same slice, same set) and do not share target's
// line. Pages are allocated on demand.
func CongruentLines(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, n int) ([]mem.VAddr, error) {
	tpa, err := as.Translate(target)
	if err != nil {
		return nil, fmt.Errorf("core: target unmapped: %w", err)
	}
	return CongruentWithLine(m, as, tpa.Line(), n)
}

// CongruentWithLine returns n virtual lines in as whose physical lines are
// LLC-congruent with tline (which may belong to a different process — this
// is how a covert-channel sender and receiver end up with lines in one
// agreed LLC set). Pages are allocated on demand.
func CongruentWithLine(m *sim.Machine, as *mem.AddressSpace, tline mem.LineAddr, n int) ([]mem.VAddr, error) {
	geo := m.H.Geometry()
	tslice := geo.Slice(tline)
	// Lines in tline's set are compared further; only they pay for the
	// slice hash.
	setMask := uint64(geo.SetsPerSlice - 1)
	return scanPages(as, tline, setMask, n, "congruent", func(la mem.LineAddr) bool {
		return la != tline && geo.Slice(la) == tslice
	})
}

// scanBatch is how many pages the oracles map at a time.
const scanBatch = 64

// scanPages maps fresh pages into as, scanBatch at a time, and returns the
// line at tline's index within the page of each page whose physical line
// agrees with tline on the bits in mask and satisfies keep, until it has n
// of them. It builds each line address from the frames the batch was mapped
// to, so no page is translated one by one; what names the search in the
// error returned when 4096 batches do not suffice.
func scanPages(as *mem.AddressSpace, tline mem.LineAddr, mask uint64, n int, what string, keep func(mem.LineAddr) bool) ([]mem.VAddr, error) {
	lineIdx := uint64(tline) % mem.LinesPerPage
	want := uint64(tline) & mask
	var out []mem.VAddr
	var frames []uint32
	for budget := 0; len(out) < n; budget++ {
		if budget > 4096 {
			return nil, fmt.Errorf("core: exhausted %d pages finding %s lines", budget*scanBatch, what)
		}
		base, err := as.Alloc(scanBatch * mem.PageSize)
		if err != nil {
			return nil, err
		}
		if frames, err = as.AppendFrames(frames[:0], base, scanBatch); err != nil {
			return nil, err
		}
		for p, f := range frames {
			la := uint64(f)<<(mem.PageBits-mem.LineBits) | lineIdx
			if la&mask == want && keep(mem.LineAddr(la)) {
				out = append(out, base+mem.VAddr(uint64(p)*mem.PageSize+lineIdx*mem.LineSize))
				if len(out) == n {
					break
				}
			}
		}
	}
	return out, nil
}

// MustCongruentLines panics on failure (experiment setup helper).
func MustCongruentLines(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, n int) []mem.VAddr {
	out, err := CongruentLines(m, as, target, n)
	if err != nil {
		panic(err)
	}
	return out
}

// PrivateCongruentLines returns n lines that share target's L1 and L2 sets
// but are NOT LLC-congruent with it — the "l′" eviction set of the paper's
// Figure 4 experiment, used to evict a line from the private caches while
// leaving its LLC copy in place.
func PrivateCongruentLines(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, n int) ([]mem.VAddr, error) {
	cfg := m.H.Config()
	geo := m.H.Geometry()
	tpa, err := as.Translate(target)
	if err != nil {
		return nil, fmt.Errorf("core: target unmapped: %w", err)
	}
	tline := tpa.Line()
	tset, tslice := geo.Set(tline), geo.Slice(tline)
	// A candidate shares tline's L1 and L2 sets (the masked bits) and then
	// must miss its LLC slice and set.
	privMask := uint64(cfg.L1Sets-1) | uint64(cfg.L2Sets-1)
	return scanPages(as, tline, privMask, n, "private-congruent", func(la mem.LineAddr) bool {
		return la != tline && (geo.Set(la) != tset || geo.Slice(la) != tslice)
	})
}

// MustPrivateCongruentLines panics on failure.
func MustPrivateCongruentLines(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, n int) []mem.VAddr {
	out, err := PrivateCongruentLines(m, as, target, n)
	if err != nil {
		panic(err)
	}
	return out
}

// EvictPrivate drives target out of the agent's L1 and L2 without touching
// its LLC set, by walking a private-congruent eviction set several times
// (Step 1 of the Figure 4 experiment). The caller provides the set from
// PrivateCongruentLines; w+1 lines walked twice suffice because
// L1ways + L2ways < LLCways on the modelled parts.
func EvictPrivate(c *sim.Core, evset []mem.VAddr, rounds int) {
	if rounds <= 0 {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, va := range evset {
			c.Load(va)
		}
	}
}
