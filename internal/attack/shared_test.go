package attack

import (
	"testing"

	"leakyway/internal/mem"
	"leakyway/internal/platform"
)

func TestStageShared(t *testing.T) {
	m := fresh(platform.Skylake(), 5)
	sh, err := StageShared(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	pa := sh.Attacker.MustTranslate(sh.DT)
	if pv := sh.Victim.MustTranslate(sh.DT); pv != pa {
		t.Fatalf("victim translates DT to %#x, attacker to %#x", pv, pa)
	}
	if len(sh.Lines) != 16 {
		t.Fatalf("%d congruent lines, want 16", len(sh.Lines))
	}
	geo := m.H.Geometry()
	seen := map[mem.LineAddr]bool{pa.Line(): true}
	for _, va := range sh.Lines {
		la := sh.Attacker.MustTranslate(va).Line()
		if seen[la] {
			t.Fatalf("line %#x repeats DT or another line", va)
		}
		seen[la] = true
		if !geo.Congruent(la, pa.Line()) {
			t.Fatalf("line %#x is not LLC-congruent with DT", va)
		}
	}

	// With no lines, staging maps the shared page and nothing else.
	m = fresh(platform.Skylake(), 5)
	free := m.Phys.FreeFrames()
	if sh, err = StageShared(m, 0); err != nil {
		t.Fatal(err)
	}
	if sh.Lines != nil {
		t.Fatalf("lines = 0 staged %d lines", len(sh.Lines))
	}
	if used := free - m.Phys.FreeFrames(); used != 1 {
		t.Fatalf("lines = 0 took %d frames, want 1", used)
	}
	if a, v := len(sh.Attacker.MappedPages()), len(sh.Victim.MappedPages()); a != 1 || v != 1 {
		t.Fatalf("mapped pages: attacker %d, victim %d; want 1 each", a, v)
	}
}
