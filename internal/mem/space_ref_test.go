package mem

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// refSpace is the map-backed page table AddressSpace used before extents,
// kept as the reference the extent table is fuzzed against. It carries the
// all-or-nothing failure rule: an operation that errors maps nothing.
type refSpace struct {
	pm    *PhysMem
	pages map[uint64]uint64 // virtual page -> physical frame
	brk   uint64
}

func newRefSpace(pm *PhysMem) *refSpace {
	return &refSpace{pm: pm, pages: map[uint64]uint64{}, brk: 0x1000}
}

func (rs *refSpace) drawFrames(npages uint64) ([]uint64, error) {
	drawn, err := rs.pm.takeFrames(npages)
	if err != nil {
		return nil, err
	}
	frames := make([]uint64, npages)
	for i, f := range drawn {
		frames[i] = uint64(f)
	}
	return frames, nil
}

func (rs *refSpace) Alloc(size uint64) (VAddr, error) {
	npages, err := pageCount("Alloc", size)
	if err != nil {
		return 0, err
	}
	frames, err := rs.drawFrames(npages)
	if err != nil {
		return 0, err
	}
	base := rs.brk
	for i, f := range frames {
		rs.pages[base+uint64(i)] = f
	}
	rs.brk += npages
	return VAddr(base << PageBits), nil
}

func (rs *refSpace) AllocContiguous(size uint64) (VAddr, error) {
	npages, err := pageCount("AllocContiguous", size)
	if err != nil {
		return 0, err
	}
	first, err := rs.pm.AllocContiguous(int(npages))
	if err != nil {
		return 0, err
	}
	base := rs.brk
	for i := uint64(0); i < npages; i++ {
		rs.pages[base+i] = first + i
	}
	rs.brk += npages
	return VAddr(base << PageBits), nil
}

func (rs *refSpace) AllocAt(base VAddr, size uint64) error {
	if base.PageOffset() != 0 {
		return fmt.Errorf("mem: AllocAt(%#x): base not page aligned", uint64(base))
	}
	npages, err := pageCount("AllocAt", size)
	if err != nil {
		return err
	}
	start := base.Page()
	for i := uint64(0); i < npages; i++ {
		if _, dup := rs.pages[start+i]; dup {
			return fmt.Errorf("mem: AllocAt: page %#x already mapped", start+i)
		}
	}
	frames, err := rs.drawFrames(npages)
	if err != nil {
		return err
	}
	for i, f := range frames {
		rs.pages[start+uint64(i)] = f
	}
	rs.brk = max(rs.brk, start+npages)
	return nil
}

func (rs *refSpace) MapShared(other *refSpace, base VAddr, size uint64) error {
	npages, err := pageCount("MapShared", size)
	if err != nil {
		return err
	}
	start := base.Page()
	for i := uint64(0); i < npages; i++ {
		if _, dup := rs.pages[start+i]; dup {
			return fmt.Errorf("mem: MapShared: virtual page %#x already mapped", start+i)
		}
		if _, ok := other.pages[start+i]; !ok {
			return fmt.Errorf("mem: MapShared: source page %#x not mapped", start+i)
		}
	}
	for i := uint64(0); i < npages; i++ {
		rs.pages[start+i] = other.pages[start+i]
	}
	rs.brk = max(rs.brk, start+npages)
	return nil
}

func (rs *refSpace) Translate(va VAddr) (PAddr, error) {
	frame, ok := rs.pages[va.Page()]
	if !ok {
		return 0, fmt.Errorf("mem: page fault at %#x", uint64(va))
	}
	return PAddr(frame<<PageBits | va.PageOffset()), nil
}

// TranslationLevels scans every mapped page for one sharing va's index
// prefix at each level.
func (rs *refSpace) TranslationLevels(va VAddr) int {
	if _, ok := rs.pages[va.Page()]; ok {
		return PageLevels
	}
	for level := PageLevels - 1; level >= 1; level-- {
		shift := uint(PageBits + (PageLevels-level)*levelBits)
		for p := range rs.pages {
			if (p<<PageBits)>>shift == uint64(va)>>shift {
				return level
			}
		}
	}
	return 0
}

func (rs *refSpace) MappedPages() []uint64 {
	out := make([]uint64, 0, len(rs.pages))
	for p := range rs.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fuzzOps decodes a fuzz input into operation parameters; an exhausted
// input reads as zeros, so every input is a finite op stream.
type fuzzOps struct{ data []byte }

func (f *fuzzOps) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzOps) u16() uint64 { return uint64(f.byte())<<8 | uint64(f.byte()) }

// size draws a byte count of up to 40 pages, sometimes unaligned or zero.
func (f *fuzzOps) size() uint64 {
	pages := uint64(f.byte() % 41)
	if b := f.byte(); b&1 != 0 {
		return pages*PageSize + uint64(b)*16
	}
	return pages * PageSize
}

// addr draws a virtual address near one of the regions address spaces
// use: low pages around the initial brk, the current brk, user-space high
// mappings, and the kernel half. An odd selector byte misaligns it.
func (f *fuzzOps) addr(brk uint64) VAddr {
	sel := f.byte()
	var page uint64
	switch (sel >> 1) % 5 {
	case 0:
		page = f.u16() % 0x1100
	case 1:
		page = 0x1000 + f.u16()%64
	case 2:
		page = brk - 32 + f.u16()%64
	case 3:
		page = 0x7f00_0000_0000>>PageBits + f.u16()<<4
	case 4:
		page = 0xffff_8000_0000_0000>>PageBits + f.u16()<<6
	}
	va := VAddr(page << PageBits)
	if sel&1 != 0 {
		va += VAddr(f.byte()) | 1
	}
	return va
}

// FuzzAddressSpaceReference drives the same random operation stream
// through the extent page table and the map-backed reference, each pair of
// spaces on its own identically seeded pool, and after every operation
// compares results, errors, page-table walk depths near and far from the
// operation's address, the mapped page set and the next Alloc base. Since
// extents are views of the pool's frame list, it also checks after every
// operation that the list still equals a copy taken at the start.
func FuzzAddressSpaceReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2, 10, 0, 4, 0x10, 0, 5, 1, 0, 8})
	f.Add([]byte{2, 6, 0, 0, 12, 0, 3, 1, 3, 9, 0, 0, 5, 0, 0, 40, 0, 3, 0, 0})
	f.Add([]byte{1, 9, 4, 0, 2, 4, 0x20, 1, 7, 4, 0, 40, 0, 0, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		seed := int64(ops.byte())
		poolPages := 16 + uint64(ops.byte())
		pm := NewPhysMem(poolPages*PageSize, seed)
		rpm := NewPhysMem(poolPages*PageSize, seed)
		// Extents alias the pool's frame list; no operation may write it.
		pool := slices.Clone(pm.frames)
		got := [2]*AddressSpace{NewAddressSpace(pm), NewAddressSpace(pm)}
		want := [2]*refSpace{newRefSpace(rpm), newRefSpace(rpm)}
		for step := 0; len(ops.data) > 0 && step < 64; step++ {
			op := ops.byte()
			s := (op >> 4) & 1 // the space operated on; 1-s is MapShared's source
			g, w := got[s], want[s]
			var va VAddr
			var desc string
			var gerr, werr error
			switch op % 5 {
			case 0:
				size := ops.size()
				desc = fmt.Sprintf("Alloc(%#x)", size)
				var gva, wva VAddr
				gva, gerr = g.Alloc(size)
				wva, werr = w.Alloc(size)
				if gva != wva {
					t.Fatalf("step %d space %d %s = %#x, reference %#x", step, s, desc, uint64(gva), uint64(wva))
				}
				va = gva
			case 1:
				size := ops.size()
				desc = fmt.Sprintf("AllocContiguous(%#x)", size)
				var gva, wva VAddr
				gva, gerr = g.AllocContiguous(size)
				wva, werr = w.AllocContiguous(size)
				if gva != wva {
					t.Fatalf("step %d space %d %s = %#x, reference %#x", step, s, desc, uint64(gva), uint64(wva))
				}
				va = gva
			case 2:
				va = ops.addr(w.brk)
				size := ops.size()
				desc = fmt.Sprintf("AllocAt(%#x, %#x)", uint64(va), size)
				gerr = g.AllocAt(va, size)
				werr = w.AllocAt(va, size)
			case 3:
				src := want[1-s].MappedPages()
				if len(src) > 0 && ops.byte()&3 != 0 {
					va = VAddr((src[ops.u16()%uint64(len(src))] - 2 + uint64(ops.byte()%5)) << PageBits)
				} else {
					va = ops.addr(want[1-s].brk)
				}
				size := ops.size()
				desc = fmt.Sprintf("MapShared(%#x, %#x)", uint64(va), size)
				gerr = g.MapShared(got[1-s], va, size)
				werr = w.MapShared(want[1-s], va, size)
			case 4:
				mapped := w.MappedPages()
				if len(mapped) > 0 && ops.byte()&1 != 0 {
					va = VAddr(mapped[ops.u16()%uint64(len(mapped))]<<PageBits | ops.u16()%PageSize)
				} else {
					va = ops.addr(w.brk)
				}
				desc = fmt.Sprintf("Translate(%#x)", uint64(va))
				// compareSpaces translates va on both sides.
			}
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d space %d %s: err %v, reference %v", step, s, desc, gerr, werr)
			}
			for i := range got {
				compareSpaces(t, fmt.Sprintf("step %d (%s on space %d), space %d", step, desc, s, i), got[i], want[i], va)
			}
			if !slices.Equal(pm.frames, pool) {
				t.Fatalf("step %d (%s on space %d) wrote the pool's frame list", step, desc, s)
			}
		}
	})
}

// compareSpaces checks that an extent table and its reference agree on
// everything observable around va.
func compareSpaces(t *testing.T, where string, g *AddressSpace, w *refSpace, va VAddr) {
	t.Helper()
	if g.brk != w.brk {
		t.Fatalf("%s: next Alloc base page %#x, reference %#x", where, g.brk, w.brk)
	}
	if gp, wp := g.MappedPages(), w.MappedPages(); !slices.Equal(gp, wp) {
		t.Fatalf("%s: mapped pages %#x, reference %#x", where, gp, wp)
	}
	probes := []VAddr{0, 0xffff_ffff_ffff_f000, VAddr(w.brk << PageBits)}
	for _, d := range []uint64{0, PageSize, 8 * PageSize, 2 << 20, 1 << 30, 512 << 30} {
		probes = append(probes, va+VAddr(d), va-VAddr(d))
	}
	for _, p := range probes {
		if gl, wl := g.TranslationLevels(p), w.TranslationLevels(p); gl != wl {
			t.Fatalf("%s: TranslationLevels(%#x) = %d, reference %d", where, uint64(p), gl, wl)
		}
		gpa, gerr := g.Translate(p)
		wpa, werr := w.Translate(p)
		if gpa != wpa || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: Translate(%#x) = %#x, %v; reference %#x, %v",
				where, uint64(p), uint64(gpa), gerr, uint64(wpa), werr)
		}
	}
}
