package channel

import (
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// BenchmarkChannelSetup measures staging a two-set channel on a fresh
// machine, the setup every sweep point of a fresh-seed job repeats.
// Machines come from an arena over a memoized frame shuffle, so what is
// timed is the congruence oracle and the address space mappings it makes.
func BenchmarkChannelSetup(b *testing.B) {
	cfg := platform.Skylake()
	ar := sim.NewArena()
	ar.NewMachine(cfg, 1<<30, 1) // memoize the shuffle outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Setup(ar.NewMachine(cfg, 1<<30, 1), 2); err != nil {
			b.Fatal(err)
		}
	}
}
