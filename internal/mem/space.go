package mem

import (
	"fmt"
	"math"
	"slices"
)

// AddressSpace is a per-process virtual address space: a page table mapping
// virtual pages to physical frames. Every page of a region is backed
// eagerly on Alloc; the simulator has no demand-paging concerns.
//
// Two address spaces can share physical frames via MapShared, which is how
// the Reload+Refresh experiments model a shared library / deduplicated page
// between victim and attacker.
type AddressSpace struct {
	pm *PhysMem

	// The page table is a sorted list of non-overlapping extents: address
	// spaces here are a handful of large regions, so binary-searching a few
	// extents beats hashing every page. hint is the extent the last table
	// lookup hit.
	extents []extent
	hint    int
	brk     uint64 // next free virtual page

	// Direct-mapped software TLB in front of the page table. Mappings are
	// only ever added, never changed or removed, so cached entries can
	// never go stale and the TLB needs no shootdown path.
	tlbTags   [tlbSlots]uint64 // page+1 per slot; 0 = empty
	tlbFrames [tlbSlots]uint64
}

// extent maps the virtual pages [start, start+len(frames)) to frames. The
// frame slice is read-only: Alloc and AllocAt map a view of the pool's
// shuffled frame list (shared by every space on the pool, and by every pool
// over the same FrameShuffle), so nothing may write through it.
type extent struct {
	start  uint64
	frames []uint32
}

func (e *extent) end() uint64 { return e.start + uint64(len(e.frames)) }

// tlbSlots sizes the translation cache; collisions just recompute.
const tlbSlots = 1 << 9

// NewAddressSpace creates an empty address space drawing frames from pm.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{
		pm:  pm,
		brk: 0x1000, // leave page 0 unmapped, like a real process
	}
}

// Alloc reserves size bytes of fresh virtual memory (rounded up to whole
// pages) backed by randomized physical frames, and returns the base address.
// It maps nothing if the pool cannot back every page.
func (as *AddressSpace) Alloc(size uint64) (VAddr, error) {
	npages, err := pageCount("Alloc", size)
	if err != nil {
		return 0, err
	}
	frames, err := as.pm.takeFrames(npages)
	if err != nil {
		return 0, err
	}
	base := as.brk
	as.mapAtBrk(frames)
	return VAddr(base << PageBits), nil
}

// AllocContiguous reserves size bytes backed by physically contiguous
// frames (a modelled huge-page region) and returns the base address.
func (as *AddressSpace) AllocContiguous(size uint64) (VAddr, error) {
	npages, err := pageCount("AllocContiguous", size)
	if err != nil {
		return 0, err
	}
	first, err := as.pm.AllocContiguous(int(npages))
	if err != nil {
		return 0, err
	}
	frames := make([]uint32, npages)
	for i := range frames {
		frames[i] = uint32(first) + uint32(i)
	}
	base := as.brk
	as.mapAtBrk(frames)
	return VAddr(base << PageBits), nil
}

// pageCount rounds a mapping of size bytes up to whole pages. It rejects a
// zero size and one so close to 2^64 that the rounding wraps, so every
// mapping it admits covers at least one page.
func pageCount(op string, size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: %s: size must be positive", op)
	}
	if size > math.MaxUint64-PageSize+1 {
		return 0, fmt.Errorf("mem: %s: size %#x exceeds the address space", op, size)
	}
	return (size + PageSize - 1) / PageSize, nil
}

// mapAtBrk maps frames at brk and advances brk past them. It grows the
// extent ending at brk in place when frames continue that extent's backing
// array (consecutive draws from one pool), and starts a new extent
// otherwise.
func (as *AddressSpace) mapAtBrk(frames []uint32) {
	if k := len(as.extents); k > 0 {
		e := &as.extents[k-1]
		if n := len(e.frames); e.end() == as.brk && n < cap(e.frames) && &e.frames[:n+1][n] == &frames[0] {
			e.frames = e.frames[:n+len(frames)]
			as.brk += uint64(len(frames))
			return
		}
	}
	as.insert(len(as.extents), as.brk, frames)
}

// search returns the index of the first extent that ends after page — the
// one holding page, if any does — or len(extents).
func (as *AddressSpace) search(page uint64) int {
	lo, hi := 0, len(as.extents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if as.extents[m].end() > page {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// lookup walks the page table for one page.
func (as *AddressSpace) lookup(page uint64) (uint64, bool) {
	if h := as.hint; h < len(as.extents) {
		if e := &as.extents[h]; page-e.start < uint64(len(e.frames)) {
			return uint64(e.frames[page-e.start]), true
		}
	}
	i := as.search(page)
	if i == len(as.extents) || as.extents[i].start > page {
		return 0, false
	}
	as.hint = i
	e := &as.extents[i]
	return uint64(e.frames[page-e.start]), true
}

// overlap reports the first mapped page in [start, start+n), if any, and
// the index at which an extent covering that range would be inserted.
func (as *AddressSpace) overlap(start, n uint64) (i int, first uint64, mapped bool) {
	i = as.search(start)
	if i == len(as.extents) || as.extents[i].start >= start+n {
		return i, 0, false
	}
	return i, max(start, as.extents[i].start), true
}

// insert maps [start, start+len(frames)) at extent index i, which overlap
// returned for a free range, and raises brk to the end of the mapping.
func (as *AddressSpace) insert(i int, start uint64, frames []uint32) {
	as.extents = slices.Insert(as.extents, i, extent{start: start, frames: frames})
	if end := start + uint64(len(frames)); end > as.brk {
		as.brk = end
	}
}

// Translate resolves a virtual address to its physical address.
func (as *AddressSpace) Translate(va VAddr) (PAddr, error) {
	page := va.Page()
	idx := page & (tlbSlots - 1)
	if as.tlbTags[idx] == page+1 {
		return PAddr(as.tlbFrames[idx]<<PageBits | uint64(va)&(PageSize-1)), nil
	}
	frame, ok := as.lookup(page)
	if !ok {
		return 0, fmt.Errorf("mem: page fault at %#x", uint64(va))
	}
	as.tlbTags[idx] = page + 1
	as.tlbFrames[idx] = frame
	return PAddr(frame<<PageBits | uint64(va)&(PageSize-1)), nil
}

// MustTranslate is Translate for addresses the caller has itself mapped;
// it panics on a page fault, which always indicates a harness bug.
func (as *AddressSpace) MustTranslate(va VAddr) PAddr {
	pa, err := as.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// MapShared maps size bytes starting at the other space's base address into
// this space at the same virtual address, sharing the physical frames. It
// models page deduplication / a shared library segment. The virtual range
// must not already be mapped here and must be mapped in other; on error
// nothing is mapped.
func (as *AddressSpace) MapShared(other *AddressSpace, base VAddr, size uint64) error {
	npages, err := pageCount("MapShared", size)
	if err != nil {
		return err
	}
	start := base.Page()
	i, dup, isDup := as.overlap(start, npages)
	frames, hole, isHole := other.appendFrames(nil, start, npages)
	// Report the lowest offending page, a duplicate before a hole on the
	// same page.
	switch {
	case isDup && (!isHole || dup <= hole):
		return fmt.Errorf("mem: MapShared: virtual page %#x already mapped", dup)
	case isHole:
		return fmt.Errorf("mem: MapShared: source page %#x not mapped", hole)
	}
	as.insert(i, start, frames)
	return nil
}

// AppendFrames appends the frame numbers backing the npages virtual pages
// from base's page onward to dst and returns the result, or an error naming
// the first of those pages that is not mapped. It is how a caller reads the
// frames of a region it just mapped without translating page by page.
func (as *AddressSpace) AppendFrames(dst []uint32, base VAddr, npages uint64) ([]uint32, error) {
	frames, hole, isHole := as.appendFrames(dst, base.Page(), npages)
	if isHole {
		return dst, fmt.Errorf("mem: page fault at %#x", hole<<PageBits)
	}
	return frames, nil
}

// appendFrames appends the frames backing [start, start+n) to dst, or
// reports the first page in the range that is not mapped.
func (as *AddressSpace) appendFrames(dst []uint32, start, n uint64) (frames []uint32, hole uint64, isHole bool) {
	end := start + n
	page := start
	frames = dst
	for i := as.search(start); page < end; i++ {
		if i == len(as.extents) || as.extents[i].start > page {
			return nil, page, true
		}
		e := &as.extents[i]
		frames = append(frames, e.frames[page-e.start:min(e.end(), end)-e.start]...)
		page = e.end()
	}
	return frames, 0, false
}

// MappedPages returns the mapped virtual page numbers in ascending order.
// Used by tests and diagnostics.
func (as *AddressSpace) MappedPages() []uint64 {
	var out []uint64
	for _, e := range as.extents {
		for p := e.start; p < e.end(); p++ {
			out = append(out, p)
		}
	}
	return out
}

// Lines enumerates the line-aligned virtual addresses of a [base, base+size)
// region, a convenience for building candidate pools.
func Lines(base VAddr, size uint64) []VAddr {
	n := size / LineSize
	out := make([]VAddr, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, base+VAddr(i*LineSize))
	}
	return out
}
