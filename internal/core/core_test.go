package core

import (
	"strings"
	"testing"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

func newMachine(t *testing.T, seed int64) *sim.Machine {
	t.Helper()
	return sim.MustNewMachine(platform.Skylake(), 1<<30, seed)
}

func TestCalibrateThresholds(t *testing.T) {
	m := newMachine(t, 1)
	var th Thresholds
	m.Spawn("cal", 0, nil, func(c *sim.Core) {
		th = Calibrate(c, 64)
	})
	m.Run()
	lat := platform.Skylake().Lat
	// The miss threshold must sit between the LLC-hit tier and the DRAM
	// tier of timed operations.
	llcTimed := lat.LLCHit + lat.TimerOverhead + lat.LLCJit + lat.TimerJit
	memTimed := lat.Mem + lat.TimerOverhead - lat.MemJit - lat.TimerJit
	if th.MissThreshold <= llcTimed || th.MissThreshold >= memTimed {
		t.Fatalf("MissThreshold = %d, want in (%d, %d)", th.MissThreshold, llcTimed, memTimed)
	}
	if !th.IsMiss(memTimed + 10) {
		t.Error("DRAM-tier sample not classified as miss")
	}
	if th.IsMiss(llcTimed - 10) {
		t.Error("LLC-tier sample classified as miss")
	}
}

func TestCongruentLinesOracle(t *testing.T) {
	m := newMachine(t, 2)
	as := m.NewSpace()
	target, err := as.Alloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	lines := MustCongruentLines(m, as, target, 16)
	if len(lines) != 16 {
		t.Fatalf("got %d lines, want 16", len(lines))
	}
	geo := m.H.Geometry()
	tline := as.MustTranslate(target).Line()
	seen := map[mem.LineAddr]bool{tline: true}
	for _, va := range lines {
		la := as.MustTranslate(va).Line()
		if seen[la] {
			t.Fatalf("duplicate line %v", la)
		}
		seen[la] = true
		if !geo.Congruent(la, tline) {
			t.Fatalf("line %v is not congruent with target", la)
		}
	}
}

func TestPrivateCongruentLinesOracle(t *testing.T) {
	m := newMachine(t, 3)
	as := m.NewSpace()
	target, _ := as.Alloc(mem.PageSize)
	lines := MustPrivateCongruentLines(m, as, target, 13)
	cfg := m.H.Config()
	geo := m.H.Geometry()
	tline := as.MustTranslate(target).Line()
	for _, va := range lines {
		la := as.MustTranslate(va).Line()
		if geo.Congruent(la, tline) {
			t.Fatal("private-congruent line collides in the LLC")
		}
		if uint64(la)%uint64(cfg.L1Sets) != uint64(tline)%uint64(cfg.L1Sets) {
			t.Fatal("L1 set mismatch")
		}
		if uint64(la)%uint64(cfg.L2Sets) != uint64(tline)%uint64(cfg.L2Sets) {
			t.Fatal("L2 set mismatch")
		}
	}
}

func TestEvictPrivateKeepsLLCCopy(t *testing.T) {
	m := newMachine(t, 4)
	as := m.NewSpace()
	target, _ := as.Alloc(mem.PageSize)
	cfg := m.H.Config()
	evset := MustPrivateCongruentLines(m, as, target, cfg.L1Ways+cfg.L2Ways+1)
	m.Spawn("a", 0, as, func(c *sim.Core) {
		c.Load(target)
		EvictPrivate(c, evset, 3)
		pa := as.MustTranslate(target)
		if m.H.PresentInCore(hier.LevelL1, 0, pa) || m.H.PresentInCore(hier.LevelL2, 0, pa) {
			t.Error("target still in private caches after EvictPrivate")
		}
		if !m.H.Present(hier.LevelLLC, pa) {
			t.Error("target lost its LLC copy — the private eviction set is not LLC-disjoint")
		}
	})
	m.Run()
}

func TestListingOneShape(t *testing.T) {
	seq := ListingOneIndices()
	if len(seq) != 192 {
		t.Fatalf("Listing 1 has %d references, want 192", len(seq))
	}
	for _, idx := range seq {
		if idx < 0 || idx > 15 {
			t.Fatalf("index %d out of the 16-line eviction set", idx)
		}
	}
	// The scope line (index 0) is touched repeatedly: 4 extra times per
	// block beyond its own turn.
	zeros := 0
	for _, idx := range seq {
		if idx == 0 {
			zeros++
		}
	}
	if zeros <= 12 {
		t.Fatalf("scope line touched %d times; pattern should re-touch it heavily", zeros)
	}
}

func TestPrimeScopePreparations(t *testing.T) {
	m := newMachine(t, 5)
	as := m.NewSpace()
	anchor, _ := as.Alloc(mem.PageSize)
	cfg := m.H.Config()
	evset := append([]mem.VAddr{anchor}, MustCongruentLines(m, as, anchor, cfg.LLCWays-1)...)
	m.Spawn("a", 0, as, func(c *sim.Core) {
		refs := PrimeScopePrepare(c, evset)
		if refs != 192 {
			t.Errorf("Prime+Scope prep refs = %d, want 192", refs)
		}
		scope := as.MustTranslate(evset[0])
		if !m.H.PresentInCore(hier.LevelL1, 0, scope) {
			t.Error("scope line not in L1 after Listing 1 prep")
		}
		if !m.H.Present(hier.LevelLLC, scope) {
			t.Error("scope line not in LLC after Listing 1 prep")
		}
	})
	m.Run()
}

func TestPrimePrefetchScopePrepare(t *testing.T) {
	m := newMachine(t, 6)
	as := m.NewSpace()
	anchor, _ := as.Alloc(mem.PageSize)
	cfg := m.H.Config()
	evset := append([]mem.VAddr{anchor}, MustCongruentLines(m, as, anchor, cfg.LLCWays)...)
	m.Spawn("a", 0, as, func(c *sim.Core) {
		refs := PrimePrefetchScopePrepare(c, evset, 2)
		if refs != 33 {
			t.Errorf("Listing 2 refs = %d, want 33", refs)
		}
		scope := as.MustTranslate(evset[0])
		if !m.H.PresentInCore(hier.LevelL1, 0, scope) {
			t.Error("scope line not in L1")
		}
		if cand, ok := m.H.LLCCandidate(scope); !ok || cand != scope.Line() {
			t.Error("scope line is not the LLC eviction candidate after NTA prep")
		}
	})
	m.Run()
}

func TestTraceRendering(t *testing.T) {
	m := newMachine(t, 7)
	as := m.NewSpace()
	target, _ := as.Alloc(mem.PageSize)
	tr := NewTrace()
	m.Spawn("a", 0, as, func(c *sim.Core) {
		tr.Label(c, target, "dt")
		c.Load(target)
		tr.Snap(m, c, target, "after load dt")
		c.PrefetchNTA(target)
		tr.Snap(m, c, target, "after prefetch dt")
	})
	m.Run()
	out := tr.Render()
	if !strings.Contains(out, "after load dt") || !strings.Contains(out, "dt:2") {
		t.Fatalf("trace missing load snapshot:\n%s", out)
	}
	if tr.Steps() != 2 {
		t.Fatalf("steps = %d, want 2", tr.Steps())
	}
}

func TestRotateView(t *testing.T) {
	evset := make([]mem.VAddr, 6)
	for i := range evset {
		evset[i] = mem.VAddr((i + 1) * mem.PageSize)
	}
	n := len(evset) - 1
	view := make([]mem.VAddr, len(evset))
	// at[i] counts the lines seen at position i over one period.
	at := make([]map[mem.VAddr]int, len(evset))
	for i := range at {
		at[i] = map[mem.VAddr]int{}
	}
	for it := 0; it < n; it++ {
		RotateView(view, evset, it)
		if view[0] != evset[0] {
			t.Fatalf("iteration %d: scope line moved to %#x", it, view[0])
		}
		for i, va := range view {
			at[i][va]++
		}
	}
	for i := 1; i < len(evset); i++ {
		if len(at[i]) != n {
			t.Fatalf("position %d saw %d distinct lines over %d iterations, want %d", i, len(at[i]), n, n)
		}
		if at[i][evset[0]] != 0 {
			t.Fatalf("position %d held the scope line", i)
		}
	}
	// The rotation has period len-1.
	again := make([]mem.VAddr, len(evset))
	RotateView(view, evset, 0)
	RotateView(again, evset, n)
	for i := range view {
		if view[i] != again[i] {
			t.Fatalf("iteration %d differs from iteration 0 at %d", n, i)
		}
	}
}
