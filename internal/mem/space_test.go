package mem

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestAllocAndTranslate(t *testing.T) {
	pm := NewPhysMem(1<<20, 1)
	as := NewAddressSpace(pm)
	base, err := as.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if base.PageOffset() != 0 {
		t.Fatalf("base %#x not page aligned", uint64(base))
	}
	// Offsets survive translation.
	for _, off := range []uint64{0, 1, 63, 64, PageSize - 1, PageSize, 2*PageSize + 123} {
		pa, err := as.Translate(base + VAddr(off))
		if err != nil {
			t.Fatalf("Translate(+%d): %v", off, err)
		}
		if pa.PageOffset() != (uint64(base)+off)%PageSize {
			t.Errorf("offset mismatch at +%d: got %#x", off, pa.PageOffset())
		}
	}
	// Unmapped access faults.
	if _, err := as.Translate(base + VAddr(3*PageSize)); err == nil {
		t.Fatal("expected page fault past the region")
	}
	if _, err := as.Translate(0); err == nil {
		t.Fatal("expected page fault at null page")
	}
}

func TestDistinctSpacesDistinctFrames(t *testing.T) {
	pm := NewPhysMem(1<<20, 1)
	a := NewAddressSpace(pm)
	b := NewAddressSpace(pm)
	va, _ := a.Alloc(PageSize)
	vb, _ := b.Alloc(PageSize)
	pa := a.MustTranslate(va)
	pb := b.MustTranslate(vb)
	if pa.Frame() == pb.Frame() {
		t.Fatalf("two private allocations share frame %d", pa.Frame())
	}
}

func TestMapShared(t *testing.T) {
	pm := NewPhysMem(1<<20, 1)
	victim := NewAddressSpace(pm)
	attacker := NewAddressSpace(pm)
	base, _ := victim.Alloc(2 * PageSize)
	if err := attacker.MapShared(victim, base, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 2*PageSize; off += PageSize / 2 {
		pv := victim.MustTranslate(base + VAddr(off))
		pa := attacker.MustTranslate(base + VAddr(off))
		if pv != pa {
			t.Fatalf("shared mapping diverges at +%d: %#x vs %#x", off, uint64(pv), uint64(pa))
		}
	}
	// Double-mapping the same range must fail.
	if err := attacker.MapShared(victim, base, PageSize); err == nil {
		t.Fatal("expected error on overlapping MapShared")
	}
	// Sharing an unmapped source must fail.
	if err := attacker.MapShared(victim, base+VAddr(16*PageSize), PageSize); err == nil {
		t.Fatal("expected error for unmapped source")
	}
}

func TestAllocContiguousSpace(t *testing.T) {
	pm := NewPhysMem(1<<20, 1)
	as := NewAddressSpace(pm)
	base, err := as.AllocContiguous(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	first := as.MustTranslate(base)
	for i := uint64(1); i < 4; i++ {
		pa := as.MustTranslate(base + VAddr(i*PageSize))
		if pa.Frame() != first.Frame()+i {
			t.Fatalf("page %d frame %d, want %d", i, pa.Frame(), first.Frame()+i)
		}
	}
}

func TestAllocAtAndTranslationLevels(t *testing.T) {
	pm := NewPhysMem(1<<22, 1)
	as := NewAddressSpace(pm)
	base := VAddr(0x7f00_0000_0000)
	if err := as.AllocAt(base, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.AllocAt(base, PageSize); err == nil {
		t.Fatal("double AllocAt accepted")
	}
	if err := as.AllocAt(base+1, PageSize); err == nil {
		t.Fatal("unaligned AllocAt accepted")
	}
	// Mapped page: full depth.
	if got := as.TranslationLevels(base); got != PageLevels {
		t.Fatalf("mapped page depth = %d, want %d", got, PageLevels)
	}
	// Same 2 MiB region (level 3 shared), unmapped page: depth 3.
	if got := as.TranslationLevels(base + 8*PageSize); got != 3 {
		t.Fatalf("same-L2-entry depth = %d, want 3", got)
	}
	// Same 1 GiB region: depth 2.
	if got := as.TranslationLevels(base + (4 << 20)); got != 2 {
		t.Fatalf("same-1G depth = %d, want 2", got)
	}
	// Far away: depth 0.
	if got := as.TranslationLevels(0xffff_0000_0000_0000); got != 0 {
		t.Fatalf("far address depth = %d, want 0", got)
	}
}

// TestAllocFailureMapsNothing: an allocation the pool cannot back, or a
// share with a hole in its source, must leave the page table untouched.
// TestAllocContiguousFrameLimit: page tables hold 32-bit frame numbers, so
// a contiguous reservation reaching past frame 2^32-1 must fail and map
// nothing rather than wrap.
func TestAllocContiguousFrameLimit(t *testing.T) {
	pm := NewPhysMem(1<<20, 1)
	as := NewAddressSpace(pm)
	if _, err := pm.AllocContiguous(int(1<<32 - pm.synth - 2)); err != nil {
		t.Fatal(err)
	}
	base, err := as.AllocContiguous(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := as.MustTranslate(base + PageSize).Frame(); got != 1<<32-1 {
		t.Fatalf("last synthesized frame %#x, want %#x", got, uint64(1<<32-1))
	}
	if _, err := as.AllocContiguous(PageSize); err == nil {
		t.Fatal("AllocContiguous past frame 2^32-1 accepted")
	}
	if got := len(as.MappedPages()); got != 2 {
		t.Fatalf("failed AllocContiguous left %d pages mapped, want 2", got)
	}
	if next, err := as.Alloc(PageSize); err != nil || next != base+2*PageSize {
		t.Fatalf("Alloc after a failed AllocContiguous = %#x, %v; want %#x", uint64(next), err, uint64(base+2*PageSize))
	}
}

// TestAllocExtentsViewPool: consecutive draws from one pool grow one extent
// in place; a draw that does not continue the extent's run of the pool
// (another space drew in between) starts a new one. Translation follows the
// pool order either way, and the pool's frame list is never written.
func TestAllocExtentsViewPool(t *testing.T) {
	pm := NewPhysMem(1<<20, 5)
	orig := slices.Clone(pm.frames)
	a, b := NewAddressSpace(pm), NewAddressSpace(pm)
	for i, sz := range []uint64{3, 5} {
		if _, err := a.Alloc(sz * PageSize); err != nil {
			t.Fatal(err)
		}
		if len(a.extents) != 1 {
			t.Fatalf("after %d consecutive Allocs: %d extents, want 1", i+1, len(a.extents))
		}
	}
	if _, err := b.Alloc(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(2 * PageSize); err != nil {
		t.Fatal(err)
	}
	if len(a.extents) != 2 {
		t.Fatalf("Alloc after another space drew: %d extents, want 2", len(a.extents))
	}
	want := slices.Concat(orig[:8], orig[9:11])
	got, err := a.AppendFrames(nil, VAddr(0x1000<<PageBits), uint64(len(want)))
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("frames %v, %v; want %v", got, err, want)
	}
	if _, err := a.AppendFrames(nil, VAddr(0x1000<<PageBits), uint64(len(want))+1); err == nil {
		t.Fatal("AppendFrames past brk accepted")
	}
	if !slices.Equal(pm.frames, orig) {
		t.Fatal("mapping wrote the pool's frame list")
	}
}

func TestAllocFailureMapsNothing(t *testing.T) {
	as := NewAddressSpace(NewPhysMem(4*PageSize, 1))
	base, err := as.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Alloc(2 * PageSize); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc past the pool: err = %v, want ErrOutOfMemory", err)
	}
	if got := len(as.MappedPages()); got != 3 {
		t.Fatalf("failed Alloc left %d pages mapped, want 3", got)
	}
	if _, err := as.Translate(base + 3*PageSize); err == nil {
		t.Fatal("failed Alloc mapped the page the next Alloc hands out")
	}
	next, err := as.Alloc(PageSize)
	if err != nil || next != base+3*PageSize {
		t.Fatalf("Alloc after a failed Alloc = %#x, %v; want %#x", uint64(next), err, uint64(base+3*PageSize))
	}

	at := NewAddressSpace(NewPhysMem(2*PageSize, 1))
	kbase := VAddr(0x7f00_0000_0000)
	for try := 0; try < 2; try++ {
		if err := at.AllocAt(kbase, 3*PageSize); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("AllocAt try %d: err = %v, want ErrOutOfMemory", try, err)
		}
	}
	if got := len(at.MappedPages()); got != 0 {
		t.Fatalf("failed AllocAt left %d pages mapped", got)
	}

	// A size within a page of 2^64 would round to zero pages.
	huge := NewAddressSpace(NewPhysMem(4*PageSize, 1))
	hbase, _ := huge.Alloc(2 * PageSize)
	high := VAddr(0x7f00_0000_0000)
	for _, size := range []uint64{math.MaxUint64, math.MaxUint64 - PageSize + 2} {
		if _, err := huge.Alloc(size); err == nil {
			t.Fatalf("Alloc(%#x) accepted", size)
		}
		if _, err := huge.AllocContiguous(size); err == nil {
			t.Fatalf("AllocContiguous(%#x) accepted", size)
		}
		for _, at := range []VAddr{hbase + PageSize, high} {
			if err := huge.AllocAt(at, size); err == nil || strings.Contains(err.Error(), "already mapped") {
				t.Fatalf("AllocAt(%#x, %#x): err = %v, want a size error", uint64(at), size, err)
			}
			if err := huge.MapShared(as, at, size); err == nil || strings.Contains(err.Error(), "already mapped") {
				t.Fatalf("MapShared(%#x, %#x): err = %v, want a size error", uint64(at), size, err)
			}
		}
	}
	if got := huge.MappedPages(); len(got) != 2 || got[0] != hbase.Page() {
		t.Fatalf("oversized mappings left pages %#x mapped, want %#x and the next", got, hbase.Page())
	}
	if got := huge.TranslationLevels(high); got != 0 {
		t.Fatalf("TranslationLevels(%#x) after oversized mappings = %d, want 0", uint64(high), got)
	}
	if err := huge.AllocAt(high-PageSize, 2*PageSize); err != nil {
		t.Fatalf("AllocAt across %#x after oversized mappings: %v", uint64(high), err)
	}

	pm := NewPhysMem(1<<20, 1)
	victim, spy := NewAddressSpace(pm), NewAddressSpace(pm)
	shared, _ := victim.Alloc(2 * PageSize)
	if err := spy.MapShared(victim, shared, 3*PageSize); err == nil {
		t.Fatal("MapShared over an unmapped source page accepted")
	}
	if got := len(spy.MappedPages()); got != 0 {
		t.Fatalf("failed MapShared left %d pages mapped", got)
	}
}

// BenchmarkTranslateScattered measures translation of pages scattered over
// a 64 MiB region: 4096 distinct pages through a 512-slot TLB, so nearly
// every lookup walks the page table.
func BenchmarkTranslateScattered(b *testing.B) {
	as := NewAddressSpace(NewPhysMem(1<<30, 1))
	base, err := as.Alloc(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	vas := make([]VAddr, 4096)
	for i := range vas {
		vas[i] = base + VAddr(uint64(i)*2654435761%(64<<20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Translate(vas[i%len(vas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddressSpaceAlloc measures building an eviction-set candidate
// pool: a fresh address space over a machine's 1 GiB pool, mapping
// 512 pages x 16 LLC ways.
func BenchmarkAddressSpaceAlloc(b *testing.B) {
	sh := NewFrameShuffle(1<<30, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace(NewPhysMemFrom(sh))
		if _, err := as.Alloc(8192 * PageSize); err != nil {
			b.Fatal(err)
		}
	}
}
