package attack

import (
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/stats"
)

func TestClassicVariantStrings(t *testing.T) {
	want := map[ClassicVariant]string{
		FlushReload: "Flush+Reload",
		FlushFlush:  "Flush+Flush",
		EvictReload: "Evict+Reload",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestClassicAttacksAccurate(t *testing.T) {
	for _, v := range []ClassicVariant{FlushReload, FlushFlush, EvictReload} {
		r := RunClassic(fresh(platform.Skylake(), 7), v, ClassicConfig{Iterations: 300}, 7)
		if r.Accuracy < 0.98 {
			t.Errorf("%v accuracy = %.1f%%, want ≈100%%", v, 100*r.Accuracy)
		}
	}
}

func TestFlushFlushIsStealthy(t *testing.T) {
	ff := RunClassic(fresh(platform.Skylake(), 3), FlushFlush, ClassicConfig{Iterations: 200}, 3)
	fr := RunClassic(fresh(platform.Skylake(), 3), FlushReload, ClassicConfig{Iterations: 200}, 3)
	if ff.TargetAccesses != 0 {
		t.Fatalf("Flush+Flush issued %d demand accesses to the shared line; its whole point is zero", ff.TargetAccesses)
	}
	if fr.TargetAccesses == 0 {
		t.Fatal("Flush+Reload must access the shared line")
	}
}

func TestEvictReloadSlowerThanFlushReload(t *testing.T) {
	fr := stats.Mean(RunClassic(fresh(platform.Skylake(), 3), FlushReload, ClassicConfig{Iterations: 200}, 3).IterLatencies)
	er := stats.Mean(RunClassic(fresh(platform.Skylake(), 3), EvictReload, ClassicConfig{Iterations: 200}, 3).IterLatencies)
	if er < 3*fr {
		t.Fatalf("conflict-based reset should dwarf CLFLUSH: F+R %.0f vs E+R %.0f cycles", fr, er)
	}
}

func TestClassicOnBothPlatforms(t *testing.T) {
	for _, p := range platform.All() {
		r := RunClassic(fresh(p, 11), FlushReload, ClassicConfig{Iterations: 150}, 11)
		if r.Accuracy < 0.98 {
			t.Errorf("%s: Flush+Reload accuracy %.1f%%", p.Name, 100*r.Accuracy)
		}
	}
}

func TestCoherenceAttackAccurate(t *testing.T) {
	r := RunCoherence(fresh(platform.Skylake(), 7), ClassicConfig{Iterations: 400}, 7)
	if r.Accuracy < 0.98 {
		t.Fatalf("coherence attack accuracy = %.1f%%, want ≈100%%", 100*r.Accuracy)
	}
}

func TestCoherenceAttackIsCheap(t *testing.T) {
	// One timed load per window: far cheaper than any flush/evict reset.
	r := RunCoherence(fresh(platform.Skylake(), 3), ClassicConfig{Iterations: 200}, 3)
	if m := stats.Mean(r.IterLatencies); m > 300 {
		t.Fatalf("coherence iteration mean %.0f cycles; expected a lone timed load", m)
	}
}

func TestKASLRRecovery(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		r := RunKASLR(fresh(platform.Skylake(), seed), KASLRConfig{Slots: 128, Probes: 6}, seed)
		if r.RecoveredSlot != r.TrueSlot {
			t.Fatalf("seed %d: recovered slot %d, true %d", seed, r.RecoveredSlot, r.TrueSlot)
		}
	}
}

func TestKASLRTimingSeparation(t *testing.T) {
	r := RunKASLR(fresh(platform.Skylake(), 3), KASLRConfig{Slots: 64, Probes: 8}, 3)
	winner := r.SlotMeans[r.RecoveredSlot]
	for slot, v := range r.SlotMeans {
		if slot == r.RecoveredSlot {
			continue
		}
		if winner-v < 10 {
			t.Fatalf("slot %d mean %.1f too close to winner %.1f — no timing margin", slot, v, winner)
		}
	}
}
