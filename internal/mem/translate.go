package mem

import "fmt"

// Four-level x86-64 style paging: 9 index bits per level above the 12-bit
// page offset. TranslationLevels walks the same structure the hardware
// page-table walker does, which is what the prefetch-timing KASLR attacks
// of Gruss et al. (the paper's Section VI-C related work) observe.
const (
	PageLevels = 4
	levelBits  = 9
)

// AllocAt maps size bytes of fresh physical frames at the given
// page-aligned virtual base (modelling a kernel region or a fixed-address
// mapping). It fails if any page in the range is already mapped, and maps
// nothing if the pool cannot back every page.
func (as *AddressSpace) AllocAt(base VAddr, size uint64) error {
	if base.PageOffset() != 0 {
		return fmt.Errorf("mem: AllocAt(%#x): base not page aligned", uint64(base))
	}
	npages, err := pageCount("AllocAt", size)
	if err != nil {
		return err
	}
	start := base.Page()
	i, dup, isDup := as.overlap(start, npages)
	if isDup {
		return fmt.Errorf("mem: AllocAt: page %#x already mapped", dup)
	}
	frames, err := as.pm.takeFrames(npages)
	if err != nil {
		return err
	}
	as.insert(i, start, frames)
	return nil
}

// TranslationLevels reports how many page-table levels resolve for va:
// 0 means even the top-level entry is absent, PageLevels means the page is
// fully mapped. The walk time a prefetch of va takes is proportional to
// this depth — timing it leaks the layout of address spaces the prober
// cannot read.
func (as *AddressSpace) TranslationLevels(va VAddr) int {
	page := va.Page()
	if _, ok := as.lookup(page); ok {
		return PageLevels
	}
	// The entry at level l exists iff some mapped page shares va's index
	// prefix for the top l levels, i.e. some extent intersects the aligned
	// run of pages that prefix covers.
	for level := PageLevels - 1; level >= 1; level-- {
		shift := uint(PageLevels-level) * levelBits
		if _, _, ok := as.overlap(page>>shift<<shift, 1<<shift); ok {
			return level
		}
	}
	return 0
}
