package attack

import (
	"math/rand"

	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// KASLR break via prefetch timing (Gruss et al., surveyed in the paper's
// Section VI-C): the kernel image is mapped at a randomized slot inside a
// known region. Prefetches of kernel addresses never fault, but the
// page-table walk they trigger stops at the first absent entry — so the
// walk, and therefore the prefetch, takes measurably longer at the one
// candidate slot whose translation fully resolves.

// KASLRConfig parameterizes the break.
type KASLRConfig struct {
	// Slots is the number of possible load addresses (the entropy).
	Slots int
	// SlotBytes is the spacing between candidate bases.
	SlotBytes uint64
	// ImageBytes is the size of the mapped kernel image.
	ImageBytes uint64
	// Probes is the number of timing samples per candidate.
	Probes int
}

// KASLRResult reports the run.
type KASLRResult struct {
	// TrueSlot is the secret slide the harness chose.
	TrueSlot int
	// RecoveredSlot is the attacker's answer (argmax probe time).
	RecoveredSlot int
	// SlotMeans are the per-candidate mean probe times.
	SlotMeans []float64
	// Probes is the total number of timing measurements spent.
	Probes int
}

// kaslrRegionBase is the bottom of the modelled kernel text region. High
// enough that user allocations never share upper-level entries with it.
const kaslrRegionBase = mem.VAddr(0xffff_8000_0000_0000 >> 16 << 16) // keep arithmetic simple

// RunKASLR maps a kernel image into m, which must not have run yet, at a
// seed-chosen random slot and mounts the prefetch-timing attack from an
// unprivileged agent.
func RunKASLR(m *sim.Machine, cfg KASLRConfig, seed int64) KASLRResult {
	if cfg.Slots <= 0 {
		cfg.Slots = 128
	}
	if cfg.SlotBytes == 0 {
		cfg.SlotBytes = 2 << 20 // 2 MiB, one level-2 entry
	}
	if cfg.ImageBytes == 0 {
		cfg.ImageBytes = 1 << 20
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 8
	}

	// The "boot" chooses the secret slide and maps the kernel there.
	rng := rand.New(rand.NewSource(seed ^ 0x5a1de))
	trueSlot := rng.Intn(cfg.Slots)
	kernel := m.KernelSpace()
	base := kaslrRegionBase + mem.VAddr(uint64(trueSlot)*cfg.SlotBytes)
	if err := kernel.AllocAt(base, cfg.ImageBytes); err != nil {
		panic(err)
	}

	res := KASLRResult{TrueSlot: trueSlot, SlotMeans: make([]float64, cfg.Slots)}
	m.Spawn("attacker", 0, nil, func(c *sim.Core) {
		for slot := 0; slot < cfg.Slots; slot++ {
			va := kaslrRegionBase + mem.VAddr(uint64(slot)*cfg.SlotBytes)
			var sum int64
			for p := 0; p < cfg.Probes; p++ {
				sum += c.TimedPrefetchProbe(va)
				res.Probes++
			}
			res.SlotMeans[slot] = float64(sum) / float64(cfg.Probes)
		}
	})
	m.Run()

	best := 0
	for slot, v := range res.SlotMeans {
		if v > res.SlotMeans[best] {
			best = slot
		}
	}
	res.RecoveredSlot = best
	return res
}
