package hier

import (
	"testing"

	"leakyway/internal/cache"
	"leakyway/internal/mem"
)

func nonInclusiveConfig() Config {
	cfg := testConfig()
	cfg.NonInclusive = true
	return cfg
}

func TestNonInclusiveNTASkipsLLC(t *testing.T) {
	h := MustNew(nonInclusiveConfig())
	pa := mem.PAddr(0x4040)
	res := h.PrefetchNTA(0, pa, 0)
	if res.Level != LevelMem {
		t.Fatalf("cold NTA level = %v", res.Level)
	}
	if !h.PresentInCore(LevelL1, 0, pa) {
		t.Error("NTA should still fill the local L1")
	}
	if h.Present(LevelLLC, pa) {
		t.Error("non-inclusive LLC must not receive PREFETCHNTA fills (Section VI-B)")
	}
}

func TestNonInclusiveNoBackInvalidation(t *testing.T) {
	h := MustNew(nonInclusiveConfig())
	victim := mem.PAddr(0x4040)
	h.Load(0, victim, 0)
	// Thrash the LLC set from another core.
	evset := congruentLines(h, victim, h.Config().LLCWays+1)
	now := int64(1000)
	for round := 0; round < 4; round++ {
		for _, pa := range evset {
			h.Load(1, pa, now)
			now += 1000
		}
	}
	if h.Present(LevelLLC, victim) {
		t.Fatal("victim line survived LLC thrashing")
	}
	if !h.PresentInCore(LevelL1, 0, victim) {
		t.Fatal("non-inclusive eviction must leave the private copy alive")
	}
	// The owner still hits locally — the eviction is invisible to it,
	// which is exactly why inclusive-LLC attacks do not transfer.
	if res := h.Load(0, victim, now); res.Level != LevelL1 {
		t.Fatalf("owner's reload level = %v, want L1", res.Level)
	}
}

// TestNonInclusiveSnoopsPrivateOnlyCopies: private copies outlive (or
// never had) an LLC line here, so snoops, RFO invalidations and flushes
// must reach copies the LLC's sharer masks know nothing about.
func TestNonInclusiveSnoopsPrivateOnlyCopies(t *testing.T) {
	h := MustNew(nonInclusiveConfig())
	pa := mem.PAddr(0x4040)
	h.PrefetchNTA(1, pa, 0) // core 1's L1 only
	h.Load(0, pa, 1000)
	if st, ok := h.PrivCoh(0, pa); !ok || st != cache.CohShared {
		t.Fatalf("core 0's copy = (%v, %v), want Shared next to core 1's", st, ok)
	}
	h.Store(0, pa, 2000)
	if h.PresentInCore(LevelL1, 1, pa) {
		t.Fatal("store left core 1's copy in place")
	}
	other := mem.PAddr(0x8080)
	h.PrefetchNTA(1, other, 3000)
	if res := h.Flush(other, 4000); res.Latency != h.Config().Lat.FlushPresent {
		t.Fatalf("flush of a private-only line took %d cycles, want the present cost %d",
			res.Latency, h.Config().Lat.FlushPresent)
	}
	if h.PresentInCore(LevelL1, 1, other) {
		t.Fatal("flush left core 1's private-only copy in place")
	}
}

func TestNonInclusiveConflictPrimitiveDead(t *testing.T) {
	// The NTP+NTP primitive: a second NTA cannot evict the first agent's
	// prefetched line via the LLC, because neither line is ever in it.
	h := MustNew(nonInclusiveConfig())
	dr := mem.PAddr(0x4040)
	h.PrefetchNTA(1, dr, 0)
	lines := congruentLines(h, dr, 8)
	now := int64(1000)
	for _, pa := range lines {
		h.PrefetchNTA(0, pa, now)
		now += 1000
	}
	// dr still answers from the receiver's L1: the receiver can never
	// observe the sender.
	if res := h.PrefetchNTA(1, dr, now); res.Level != LevelL1 {
		t.Fatalf("receiver's probe level = %v, want L1 (no observable conflict)", res.Level)
	}
}
