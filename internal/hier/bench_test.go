package hier

import (
	"testing"

	"leakyway/internal/mem"
)

// BenchmarkHierAccess measures the steady-state demand-load hit path through
// the full hierarchy (translate-free: the caller holds a physical address).
// The CI perf gate requires this to stay at 0 allocs/op.
func BenchmarkHierAccess(b *testing.B) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	now := h.Load(0, pa, 0).Latency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Load(0, pa, now)
		now += res.Latency
	}
}

// BenchmarkHierMissSweep measures the miss/fill/evict path: a pointer-chase
// over more congruent lines than the LLC set holds, so every access misses
// somewhere and exercises victim selection.
func BenchmarkHierMissSweep(b *testing.B) {
	h := MustNew(testConfig())
	lines := congruentLines(h, mem.PAddr(0x4040), h.Config().LLCWays+4)
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Load(0, lines[i%len(lines)], now)
		now += res.Latency
	}
}

// BenchmarkHierPrefetchNTA measures the PREFETCHNTA path, the paper's core
// primitive (issued millions of times per channel sweep).
func BenchmarkHierPrefetchNTA(b *testing.B) {
	h := MustNew(testConfig())
	pa := mem.PAddr(0x4040)
	now := h.PrefetchNTA(0, pa, 0).Latency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.PrefetchNTA(0, pa, now)
		now += res.Latency
	}
}

// BenchmarkHierCrossCoreEvict measures the coherence and back-invalidation
// paths on a four-core part: core 1 re-reads each congruent line right
// after core 0 brings it in, and the L2 is wide enough to keep every line
// of the set, so each of core 0's LLC misses evicts a line that core 1
// (and core 0) still hold and must back-invalidate, and each of core 1's
// reads snoops core 0's copy.
func BenchmarkHierCrossCoreEvict(b *testing.B) {
	cfg := testConfig()
	cfg.Cores = 4
	cfg.L2Ways = 16
	h := MustNew(cfg)
	lines := congruentLines(h, mem.PAddr(0x4040), cfg.LLCWays+4)
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := lines[i%len(lines)]
		now += h.Load(0, pa, now).Latency
		now += h.Load(1, pa, now).Latency
	}
}
