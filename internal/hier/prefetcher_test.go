package hier

import (
	"testing"

	"leakyway/internal/mem"
)

func TestAdjacentLinePrefetcher(t *testing.T) {
	cfg := testConfig()
	cfg.HWPrefetch.AdjacentLine = true
	h := MustNew(cfg)
	pa := mem.PAddr(0x4000) // even line: buddy is +64
	h.Load(0, pa, 0)
	buddy := mem.PAddr(0x4040)
	if !h.Present(LevelLLC, buddy) {
		t.Fatal("adjacent-line prefetcher did not pull the buddy line")
	}
	if !h.PresentInCore(LevelL2, 0, buddy) {
		t.Fatal("buddy line should be staged in L2")
	}
	if h.PresentInCore(LevelL1, 0, buddy) {
		t.Fatal("hardware prefetches must not fill L1")
	}
}

func TestStreamPrefetcher(t *testing.T) {
	cfg := testConfig()
	cfg.HWPrefetch.Stream = true
	cfg.HWPrefetch.StreamDepth = 2
	h := MustNew(cfg)
	base := mem.PAddr(0x10000)
	// Three ascending accesses confirm a stream.
	for i := 0; i < 3; i++ {
		h.Load(0, base+mem.PAddr(i*64), int64(i*1000))
	}
	ahead := base + mem.PAddr(4*64)
	if !h.Present(LevelLLC, ahead) {
		t.Fatal("stream prefetcher did not run ahead")
	}
}

func TestStreamPrefetcherStaysInPage(t *testing.T) {
	cfg := testConfig()
	cfg.HWPrefetch.Stream = true
	cfg.HWPrefetch.StreamDepth = 4
	h := MustNew(cfg)
	// Approach the end of a page.
	base := mem.PAddr(0x10000 + mem.PageSize - 3*64)
	for i := 0; i < 3; i++ {
		h.Load(0, base+mem.PAddr(i*64), int64(i*1000))
	}
	nextPage := mem.PAddr(0x10000 + mem.PageSize)
	if h.Present(LevelLLC, nextPage) {
		t.Fatal("stream prefetcher crossed a page boundary")
	}
}

func TestEvictionSetStrideDoesNotTriggerStream(t *testing.T) {
	// Attack loops stride by whole LLC periods; the page-local stream
	// detector must stay quiet — this is why the paper can leave the
	// prefetchers on during attacks.
	cfg := testConfig()
	cfg.HWPrefetch.Stream = true
	cfg.HWPrefetch.AdjacentLine = false
	h := MustNew(cfg)
	stride := mem.PAddr(cfg.LLCSetsPerSlice * 64)
	base := mem.PAddr(0x4040)
	for i := 0; i < 8; i++ {
		h.Load(0, base+mem.PAddr(i)*stride, int64(i*1000))
	}
	st := h.LLCStats()
	if got := int(st.Fills); got != 8 {
		t.Fatalf("LLC fills = %d, want exactly the 8 demand fills (no prefetches)", got)
	}
}

func TestPrefetchersDisabledByDefault(t *testing.T) {
	h := MustNew(testConfig())
	h.Load(0, 0x4000, 0)
	if h.Present(LevelLLC, 0x4040) {
		t.Fatal("buddy line cached although prefetchers are disabled")
	}
}

// TestPrefetcherMissDoesNotAllocate pins the demand-miss path with both
// prefetchers on as allocation-free: a Load pointer chase over congruent
// lines (adjacent-line suggestions) and an ascending walk the stream
// prefetcher confirms (run-ahead suggestions), flushed so it misses again.
func TestPrefetcherMissDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.HWPrefetch = HWPrefetchConfig{AdjacentLine: true, Stream: true}
	h := MustNew(cfg)
	chase := congruentLines(h, mem.PAddr(0x4040), 12)
	walk := mem.PAddr(0x20000)
	var now int64
	allocs := testing.AllocsPerRun(100, func() {
		for _, pa := range chase {
			now += h.Load(0, pa, now).Latency
		}
		for i := 0; i < 8; i++ {
			now += h.Load(0, walk+mem.PAddr(i*64), now).Latency
		}
		for i := 0; i < 8; i++ {
			now += h.Flush(walk+mem.PAddr(i*64), now).Latency
		}
	})
	if allocs != 0 {
		t.Fatalf("demand misses with the prefetchers on allocated %.1f times per run; want 0", allocs)
	}
}
