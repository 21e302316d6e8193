package hier

import (
	"testing"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

// testConfig is a small hierarchy so tests can fill sets quickly.
func testConfig() Config {
	return Config{
		Name: "test", Cores: 2, FreqGHz: 1,
		L1Sets: 8, L1Ways: 4,
		L2Sets: 16, L2Ways: 4,
		LLCSlices: 1, LLCSetsPerSlice: 32, LLCWays: 8,
		Lat:  quietLatency(),
		Seed: 1,
	}
}

// quietLatency removes jitter so tests can assert exact values.
func quietLatency() LatencyConfig {
	l := DefaultLatency()
	l.L1Jit, l.L2Jit, l.LLCJit, l.MemJit, l.FlushJit, l.TimerJit = 0, 0, 0, 0, 0, 0
	return l
}

// congruentLines returns n distinct lines mapping to the same LLC set as
// base, spaced so they also share L1/L2 sets (multiples of a large power of
// two), which is what paper-style eviction sets look like.
func congruentLines(h *Hierarchy, base mem.PAddr, n int) []mem.PAddr {
	geo := h.Geometry()
	target := base.Line()
	out := []mem.PAddr{}
	for i := uint64(1); len(out) < n; i++ {
		cand := mem.LineAddr(uint64(target) + i*uint64(h.Config().LLCSetsPerSlice))
		if geo.Congruent(cand, target) {
			out = append(out, cand.PAddr())
		}
	}
	return out
}

func TestLoadFillsAllLevels(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	res := h.Load(0, pa, 0)
	if res.Level != LevelMem {
		t.Fatalf("cold load level = %v, want DRAM", res.Level)
	}
	for _, lvl := range []Level{LevelL1, LevelL2, LevelLLC} {
		if !h.Present(lvl, pa) {
			t.Errorf("line absent from %v after demand load", lvl)
		}
	}
	// Second load: L1 hit.
	res = h.Load(0, pa, 1000)
	if res.Level != LevelL1 {
		t.Fatalf("warm load level = %v, want L1", res.Level)
	}
	if res.Latency != quietLatency().L1Hit {
		t.Fatalf("L1 latency = %d, want %d", res.Latency, quietLatency().L1Hit)
	}
}

func TestNTABypassesL2(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x8080)
	res := h.PrefetchNTA(0, pa, 0)
	if res.Level != LevelMem {
		t.Fatalf("cold NTA level = %v, want DRAM", res.Level)
	}
	if !h.Present(LevelL1, pa) {
		t.Error("NTA should fill L1")
	}
	if h.Present(LevelL2, pa) {
		t.Error("NTA must bypass L2 (Intel inclusive-LLC behaviour)")
	}
	if !h.Present(LevelLLC, pa) {
		t.Error("NTA should fill the inclusive LLC")
	}
	if age := h.LLCAge(pa); age != 3 {
		t.Errorf("NTA LLC insertion age = %d, want 3 (Property #1)", age)
	}
}

func TestLoadInsertionAge(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Load(0, pa, 0)
	if age := h.LLCAge(pa); age != 2 {
		t.Errorf("load LLC insertion age = %d, want 2", age)
	}
	// A demand LLC hit (from another core, so no private copy) decrements.
	h.Load(1, pa, 100)
	if age := h.LLCAge(pa); age != 1 {
		t.Errorf("age after LLC demand hit = %d, want 1", age)
	}
}

func TestNTAHitDoesNotUpdateAge(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Load(0, pa, 0) // in LLC at age 2, private copies on core 0
	// NTA from core 1 hits the LLC: age must not change (Property #2).
	res := h.PrefetchNTA(1, pa, 100)
	if res.Level != LevelLLC {
		t.Fatalf("NTA level = %v, want LLC", res.Level)
	}
	if age := h.LLCAge(pa); age != 2 {
		t.Errorf("age after NTA LLC hit = %d, want 2 (Property #2)", age)
	}
}

func TestPrivateHitDoesNotTouchLLC(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Load(0, pa, 0)
	before := h.LLCAge(pa)
	for i := 0; i < 10; i++ {
		if res := h.Load(0, pa, int64(100+i)); res.Level != LevelL1 {
			t.Fatalf("expected L1 hits, got %v", res.Level)
		}
	}
	if h.LLCAge(pa) != before {
		t.Error("L1 hits must not change the LLC age (Prime+Scope invariant)")
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	h := MustNew(testConfig())
	victim := mem.PAddr(0x4040)
	h.Load(0, victim, 0)
	if !h.PresentInCore(LevelL1, 0, victim) {
		t.Fatal("victim not in core 0 L1")
	}
	// Fill the victim's LLC set from core 1 until the victim is evicted.
	evset := congruentLines(h, victim, h.Config().LLCWays+1)
	now := int64(1000)
	for round := 0; round < 4 && h.Present(LevelLLC, victim); round++ {
		for _, pa := range evset {
			h.Load(1, pa, now)
			now += 1000
		}
	}
	if h.Present(LevelLLC, victim) {
		t.Fatal("victim survived LLC thrashing")
	}
	if h.PresentInCore(LevelL1, 0, victim) || h.PresentInCore(LevelL2, 0, victim) {
		t.Fatal("inclusion violated: LLC eviction did not back-invalidate private copies")
	}
}

func TestFlushRemovesEverywhere(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Load(0, pa, 0)
	h.Load(1, pa, 10)
	res := h.Flush(pa, 100)
	if res.Latency != quietLatency().FlushPresent {
		t.Errorf("flush-present latency = %d, want %d", res.Latency, quietLatency().FlushPresent)
	}
	for _, lvl := range []Level{LevelL1, LevelL2, LevelLLC} {
		if h.Present(lvl, pa) {
			t.Errorf("line still in %v after CLFLUSH", lvl)
		}
	}
	// Flushing an absent line is cheaper (Flush+Flush signal).
	res = h.Flush(pa, 200)
	if res.Latency != quietLatency().FlushAbsent {
		t.Errorf("flush-absent latency = %d, want %d", res.Latency, quietLatency().FlushAbsent)
	}
}

func TestFlushDirtySlower(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Store(0, pa, 0)
	res := h.Flush(pa, 100)
	if res.Latency != quietLatency().FlushDirty {
		t.Errorf("flush-dirty latency = %d, want %d", res.Latency, quietLatency().FlushDirty)
	}
}

func TestLatencyTiers(t *testing.T) {
	h := MustNew(testConfig())
	lat := quietLatency()
	pa := mem.PAddr(0x4040)

	if res := h.Load(0, pa, 0); res.Latency != lat.Mem {
		t.Errorf("DRAM load latency = %d, want %d", res.Latency, lat.Mem)
	}
	if res := h.Load(0, pa, 1000); res.Latency != lat.L1Hit {
		t.Errorf("L1 load latency = %d, want %d", res.Latency, lat.L1Hit)
	}
	// From the other core: LLC hit.
	if res := h.Load(1, pa, 2000); res.Latency != lat.LLCHit {
		t.Errorf("LLC load latency = %d, want %d", res.Latency, lat.LLCHit)
	}
}

func TestPrefetchT0FillsL2(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0xc0c0)
	h.PrefetchT0(0, pa, 0)
	if !h.Present(LevelL1, pa) || !h.Present(LevelL2, pa) || !h.Present(LevelLLC, pa) {
		t.Fatal("PREFETCHT0 should fill L1, L2 and LLC")
	}
	if age := h.LLCAge(pa); age != 2 {
		t.Errorf("T0 LLC insertion age = %d, want 2", age)
	}
}

func TestNTAEvictsCurrentCandidateAndBecomesCandidate(t *testing.T) {
	// The conflict primitive behind NTP+NTP (Section IV-B1).
	h := MustNew(testConfig())
	base := mem.PAddr(0x4040)
	lines := append([]mem.PAddr{base}, congruentLines(h, base, h.Config().LLCWays)...)
	now := int64(0)
	for _, pa := range lines[:h.Config().LLCWays] { // fill the set with loads
		h.Load(0, pa, now)
		now += 1000
	}
	dr := lines[h.Config().LLCWays]
	h.PrefetchNTA(1, dr, now)
	now += 1000
	if cand, ok := h.LLCCandidate(dr); !ok || cand != dr.Line() {
		t.Fatalf("prefetched line is not the eviction candidate (cand=%v ok=%v)", cand, ok)
	}
	// A second NTA on another congruent line must evict dr and take over.
	ds := lines[0]
	h.Flush(ds, now)
	now += 1000
	h.PrefetchNTA(0, ds, now)
	now += 1000
	if h.Present(LevelLLC, dr) {
		t.Fatal("sender's NTA did not evict the receiver's prefetched line")
	}
	if cand, ok := h.LLCCandidate(ds); !ok || cand != ds.Line() {
		t.Fatal("sender's line did not become the new eviction candidate")
	}
}

func TestDroppedFillWhenAllInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.LLCWays = 2
	h := MustNew(cfg)
	base := mem.PAddr(0x4040)
	lines := congruentLines(h, base, 2)
	// Two fills at t=0, in flight until t≈160.
	h.Load(0, base, 0)
	h.Load(0, lines[0], 0)
	// A third miss at t=10 cannot displace anything.
	res := h.Load(0, lines[1], 10)
	if !res.Dropped {
		t.Fatal("expected dropped fill while all ways are in flight")
	}
	if h.Present(LevelLLC, lines[1]) {
		t.Fatal("dropped line must not be cached")
	}
	// After the windows close the fill works.
	res = h.Load(0, lines[1], 1000)
	if res.Dropped {
		t.Fatal("fill should succeed after in-flight windows close")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := testConfig()
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Error("Cores=0 accepted")
	}
	bad = testConfig()
	bad.LLCWays = 0
	if _, err := New(bad); err == nil {
		t.Error("LLCWays=0 accepted")
	}
	bad = testConfig()
	bad.FreqGHz = 0
	if _, err := New(bad); err == nil {
		t.Error("FreqGHz=0 accepted")
	}
}

func TestStatsAndFlushAll(t *testing.T) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	h.Load(0, pa, 0)
	h.Load(0, pa, 100)
	if h.L1Stats(0).Hits == 0 {
		t.Error("no L1 hits recorded")
	}
	if h.LLCStats().Fills == 0 {
		t.Error("no LLC fills recorded")
	}
	h.FlushAll()
	for _, lvl := range []Level{LevelL1, LevelL2, LevelLLC} {
		if h.Present(lvl, pa) {
			t.Errorf("line survives FlushAll in %v", lvl)
		}
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelLLC: "LLC", LevelMem: "DRAM", Level(9): "?"} {
		if lvl.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
}

// TestL2MissAccounting pins a counter quirk the benchmark digests depend
// on: a demand Load that misses the L2 probes it without counting a miss,
// while PrefetchNTA and PrefetchT0 L2 misses are counted. An L2 hit is
// counted on every path. Fixing the quirk moves the pinned cache counters.
func TestL2MissAccounting(t *testing.T) {
	for _, tc := range []struct {
		op         string
		do         func(h *Hierarchy, pa mem.PAddr, now int64) Result
		missCounts bool
	}{
		{"load", func(h *Hierarchy, pa mem.PAddr, now int64) Result { return h.Load(0, pa, now) }, false},
		{"nta", func(h *Hierarchy, pa mem.PAddr, now int64) Result { return h.PrefetchNTA(0, pa, now) }, true},
		{"t0", func(h *Hierarchy, pa mem.PAddr, now int64) Result { return h.PrefetchT0(0, pa, now) }, true},
	} {
		h := MustNew(testConfig())
		pa := mem.PAddr(0x4040)
		if res := tc.do(h, pa, 0); res.Level != LevelMem {
			t.Fatalf("%s: cold access served from %v", tc.op, res.Level)
		}
		want := cache.Stats{}
		if tc.missCounts {
			want.Misses = 1
		}
		if tc.op != "nta" { // NTA bypasses the L2 (Property #1)
			want.Fills = 1
		}
		if got := h.L2Stats(0); got != want {
			t.Errorf("%s: L2 counters after a cold miss %+v, want %+v", tc.op, got, want)
		}
		// Evict the line from the L1 only, then re-access: an L2 hit
		// (or, for NTA, another L2 miss served by the LLC).
		h.l1[0].Invalidate(h.l1Set(pa.Line()), pa.Line())
		tc.do(h, pa, 1000)
		if tc.op == "nta" {
			want.Misses++
		} else {
			want.Hits++
		}
		if got := h.L2Stats(0); got != want {
			t.Errorf("%s: L2 counters after the re-access %+v, want %+v", tc.op, got, want)
		}
	}
}
