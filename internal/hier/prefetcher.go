package hier

import (
	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

// corePrefetcher models the per-core hardware prefetchers the paper
// mentions: the adjacent-line (spatial) prefetcher and a stream prefetcher.
// Both stay within a 4 KiB page, as on real Intel parts — which is exactly
// why the paper's attack loops (whose working sets stride across pages)
// can run with the prefetchers enabled without being disturbed.
type corePrefetcher struct {
	cfg HWPrefetchConfig
	// stream detector: a small table of recent streams.
	streams [4]streamEntry
	clock   uint64
	// out holds observeMiss's result, reused from one miss to the next.
	out []mem.LineAddr
}

type streamEntry struct {
	page     uint64 // page number of the stream
	lastLine uint64 // last line index observed within the page
	hits     int    // consecutive ascending accesses
	lastUsed uint64
	valid    bool
}

func newCorePrefetcher(cfg HWPrefetchConfig) *corePrefetcher {
	return &corePrefetcher{cfg: cfg, out: make([]mem.LineAddr, 0, 1+max(cfg.StreamDepth, 0))}
}

// observeMiss returns the lines the prefetchers want to pull in after a
// demand miss on la, in a buffer the next call overwrites.
func (p *corePrefetcher) observeMiss(la mem.LineAddr) []mem.LineAddr {
	out := p.out[:0]
	if p.cfg.AdjacentLine {
		// Pair the line with its 128-byte buddy (flip line-address bit 0).
		out = append(out, la^1)
	}
	if p.cfg.Stream {
		out = p.observeStream(la, out)
	}
	p.out = out
	return out
}

// observeStream updates the stream table and appends run-ahead prefetches
// to out.
func (p *corePrefetcher) observeStream(la mem.LineAddr, out []mem.LineAddr) []mem.LineAddr {
	p.clock++
	page := la.Frame()
	lineInPage := uint64(la) & (mem.LinesPerPage - 1)

	// Find the stream for this page.
	idx := -1
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Allocate the least recently used entry.
		lru := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				lru = i
				break
			}
			if p.streams[i].lastUsed < p.streams[lru].lastUsed {
				lru = i
			}
		}
		p.streams[lru] = streamEntry{page: page, lastLine: lineInPage, lastUsed: p.clock, valid: true}
		return out
	}
	s := &p.streams[idx]
	s.lastUsed = p.clock
	if lineInPage == s.lastLine+1 {
		s.hits++
	} else {
		s.hits = 0
	}
	s.lastLine = lineInPage
	if s.hits < 2 {
		return out
	}
	// Confirmed ascending stream: run ahead, staying inside the page.
	for d := 1; d <= p.cfg.StreamDepth; d++ {
		next := lineInPage + uint64(d)
		if next >= mem.LinesPerPage {
			break
		}
		out = append(out, la+mem.LineAddr(d))
	}
	return out
}

// hwPrefetch is called from the demand-miss path; it installs prefetcher
// suggestions into the L2 and LLC with ClassHW.
func (h *Hierarchy) hwPrefetch(core int, la mem.LineAddr, now int64) {
	if h.pf == nil {
		return
	}
	for _, target := range h.pf[core].observeMiss(la) {
		// Skip lines already in the private hierarchy.
		if _, ok := h.l2[core].Probe(h.l2Set(target), target); ok {
			continue
		}
		slice, set := h.loc.Locate(target)
		// A line already in the LLC is just pulled into L2.
		way, ok := h.llc[slice].Probe(set, target)
		ready := now + h.cfg.Lat.LLCHit
		if !ok {
			ready = now + h.cfg.Lat.Mem
			if way = h.fillLLC(core, slice, set, target, policy.ClassHW, now, ready); way < 0 {
				continue
			}
		}
		h.llc[slice].AddSharer(set, way, core)
		h.fillL2(core, target, policy.ClassHW, now, ready)
	}
}
