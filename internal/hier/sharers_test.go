package hier

import (
	"fmt"
	"strings"
	"testing"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

// sharerTestConfig is a three-core hierarchy with both hardware
// prefetchers on, so prefetched lines and cross-core sharing exercise the
// core-valid bits; partWays > 0 way-partitions the LLC.
func sharerTestConfig(partWays int) Config {
	cfg := testConfig()
	cfg.Cores = 3
	cfg.HWPrefetch = HWPrefetchConfig{AdjacentLine: true, Stream: true}
	cfg.LLCPartitionWays = partWays
	return cfg
}

// checkSharers verifies the invariant the snoop filter relies on: every
// line in any core's private caches is in the inclusive LLC, and that LLC
// line's core-valid mask has the holding core's bit set. It scans the
// private caches themselves, so lines brought in by the hardware
// prefetchers are covered too.
func checkSharers(h *Hierarchy) error {
	for c := 0; c < h.cfg.Cores; c++ {
		for _, pc := range []*cache.Cache{h.l1[c], h.l2[c]} {
			for set := 0; set < pc.Sets(); set++ {
				for _, ln := range pc.ViewSet(set).Lines {
					if !ln.Valid {
						continue
					}
					slice, llcSet := h.loc.Locate(ln.Addr)
					way, ok := h.llc[slice].Probe(llcSet, ln.Addr)
					if !ok {
						return fmt.Errorf("%s holds %v, absent from the LLC", pc.Name(), ln.Addr)
					}
					if h.llc[slice].Sharers(llcSet, way)&(1<<uint(c)) == 0 {
						return fmt.Errorf("%s holds %v, but core %d's bit is clear in the LLC sharer mask %#b",
							pc.Name(), ln.Addr, c, h.llc[slice].Sharers(llcSet, way))
					}
				}
			}
		}
	}
	return nil
}

// bruteSnoop is snoopLoad's result computed the pre-filter way, by
// scanning every other core, without changing any state.
func bruteSnoop(h *Hierarchy, core int, la mem.LineAddr) (extra int64, shared bool) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		for _, pc := range []struct {
			c   *cache.Cache
			set int
		}{{h.l1[c], h.l1Set(la)}, {h.l2[c], h.l2Set(la)}} {
			if w, ok := pc.c.Probe(pc.set, la); ok {
				shared = true
				if pc.c.Coh(pc.set, w) == cache.CohModified {
					extra = h.cfg.Lat.CohTransfer
				}
			}
		}
	}
	return extra, shared
}

// checkSnoop compares the filtered snoopLoad for (core, pa) against
// bruteSnoop. It runs the real snoop, so remote copies are downgraded
// exactly as a load by core would downgrade them.
func checkSnoop(h *Hierarchy, core int, pa mem.PAddr) error {
	la := pa.Line()
	wantExtra, wantShared := bruteSnoop(h, core, la)
	extra, shared := h.snoopLoad(core, la, h.locateLLC(la))
	if extra != wantExtra || shared != wantShared {
		return fmt.Errorf("snoop of %v for core %d = (%d, %v), brute-force scan = (%d, %v)",
			la, core, extra, shared, wantExtra, wantShared)
	}
	return nil
}

// sharerOp applies one random operation; kind selects among the memory
// operations the hierarchy exposes.
func sharerOp(h *Hierarchy, kind, core int, pa mem.PAddr, now int64) {
	switch kind % 6 {
	case 0, 1:
		h.Load(core, pa, now)
	case 2:
		h.PrefetchNTA(core, pa, now)
	case 3:
		h.PrefetchT0(core, pa, now)
	case 4:
		h.Store(core, pa, now)
	case 5:
		h.Flush(pa, now)
	}
}

// llcSharerMasks returns every non-zero LLC sharer mask, keyed by position.
func llcSharerMasks(h *Hierarchy) map[string]uint64 {
	out := map[string]uint64{}
	for s, c := range h.llc {
		for set := 0; set < c.Sets(); set++ {
			for w := 0; w < c.Ways(); w++ {
				if m := c.Sharers(set, w); m != 0 {
					out[fmt.Sprintf("slice %d set %d way %d", s, set, w)] = m
				}
			}
		}
	}
	return out
}

func TestConfigRejectsTooManyCores(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = MaxCores + 1
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "64-core sharer-mask limit") {
		t.Fatalf("New with %d cores: err = %v, want the 64-core limit", cfg.Cores, err)
	}
	cfg.Cores = MaxCores
	h, err := New(cfg)
	if err != nil {
		t.Fatalf("New with %d cores: %v", MaxCores, err)
	}
	if h.allCores != ^uint64(0) {
		t.Fatalf("all-cores mask for %d cores = %#x", MaxCores, h.allCores)
	}
}

// TestSharerBitsTrackPrivateCopies pins the mask's life cycle on one line:
// each core's private fill sets its bit, an LLC eviction hands the mask to
// the back-invalidation, and the refilled line starts empty.
func TestSharerBitsTrackPrivateCopies(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	mask := func() uint64 {
		la := pa.Line()
		slice, set := h.loc.Locate(la)
		way, ok := h.llc[slice].Probe(set, la)
		if !ok {
			t.Fatal("line absent from the LLC")
		}
		return h.llc[slice].Sharers(set, way)
	}
	h.Load(1, pa, 0)
	if m := mask(); m != 0b10 {
		t.Fatalf("after core 1's load mask = %#b, want 0b10", m)
	}
	h.PrefetchNTA(0, pa, 1000)
	if m := mask(); m != 0b11 {
		t.Fatalf("after core 0's prefetch mask = %#b, want 0b11", m)
	}
	for i, line := range congruentLines(h, pa, 2*h.Config().LLCWays) {
		h.Load(0, line, int64(2000+1000*i))
	}
	if h.Present(LevelLLC, pa) || h.PresentInCore(LevelL1, 1, pa) || h.PresentInCore(LevelL2, 1, pa) {
		t.Fatal("eviction did not back-invalidate core 1's copy")
	}
	h.Load(0, pa, 1<<20)
	if m := mask(); m != 0b01 {
		t.Fatalf("after refill by core 0 mask = %#b, want 0b01", m)
	}
}

// TestPoolRecycleClearsSharers: a stale sharer bit only costs a probe, so
// the op fingerprint of TestPoolRecycleMatchesFresh cannot see one; check
// the masks directly.
func TestPoolRecycleClearsSharers(t *testing.T) {
	p := NewPool()
	h, err := p.Get(poolTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	opFingerprint(h, 99)
	if len(llcSharerMasks(h)) == 0 {
		t.Fatal("workload left no sharer bits; the check below would be vacuous")
	}
	p.Put(h)
	h, err = p.Get(poolTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if m := llcSharerMasks(h); len(m) != 0 {
		t.Fatalf("recycled hierarchy keeps sharer masks: %v", m)
	}
}

func TestFlushAllEmptiesDirectory(t *testing.T) {
	h := MustNew(directoryConfig(false))
	lines := congruentLines(h, mem.PAddr(0x4040), 4)
	for i, pa := range lines {
		h.Load(i%2, pa, int64(1000*i))
		if !h.DirPresent(pa) {
			t.Fatalf("line %d not tracked by the directory", i)
		}
	}
	h.FlushAll()
	for i, pa := range lines {
		if h.DirPresent(pa) {
			t.Errorf("line %d still tracked by the directory after FlushAll", i)
		}
		for _, lvl := range []Level{LevelL1, LevelL2, LevelLLC} {
			if h.Present(lvl, pa) {
				t.Errorf("line %d survives FlushAll in %v", i, lvl)
			}
		}
	}
	if m := llcSharerMasks(h); len(m) != 0 {
		t.Fatalf("FlushAll left sharer masks: %v", m)
	}
}

// FuzzHierSharers runs byte streams as (op, core, address) triples through
// the hierarchy and checks the sharer invariant and the filtered snoop
// after every operation. The first byte picks the LLC partitioning (bit 0)
// and a non-inclusive LLC (bit 1), where only the snoop is checked: private
// copies may outlive the LLC line there.
func FuzzHierSharers(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 4, 1, 2, 0, 5, 5, 1, 0})
	f.Add([]byte{1, 2, 1, 9, 0, 0, 9, 3, 2, 9, 4, 1, 9, 1, 0, 9})
	f.Add([]byte{2, 2, 1, 9, 0, 0, 9, 4, 2, 9, 5, 1, 9, 2, 0, 9})
	f.Add([]byte("\x00\x00\x00\x08\x00\x01\x10\x00\x02\x18\x00\x03\x20\x01\x00\x28"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := sharerTestConfig(int(data[0]&1) * 2)
		cfg.NonInclusive = data[0]&2 != 0
		h := MustNew(cfg)
		var now int64
		for i := 1; i+2 < len(data); i += 3 {
			core := int(data[i+1]) % 3
			pa := mem.LineAddr(uint64(data[i+2]) * 36).PAddr()
			now += 300
			sharerOp(h, int(data[i]), core, pa, now)
			if !cfg.NonInclusive {
				if err := checkSharers(h); err != nil {
					t.Fatalf("op %d: %v", i/3, err)
				}
			}
			if err := checkSnoop(h, (core+1)%3, pa); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
	})
}
