package attack

import (
	"reflect"
	"testing"

	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// fresh builds the machine a runner is mounted on, as the public wrappers
// do.
func fresh(p hier.Config, seed int64) *sim.Machine {
	return sim.MustNewMachine(p, 1<<30, seed)
}

// TestRunnersOnRecycledMachine pins that a runner's result depends only on
// the machine's platform and seed, not on how the machine was built: on an
// arena machine whose hierarchy a different runner has just dirtied, every
// runner must reproduce its fresh-machine result exactly. The experiments
// mount these runners on recycled machines; RunKASLR belongs to no
// experiment, so no golden covers it.
func TestRunnersOnRecycledMachine(t *testing.T) {
	p := platform.Skylake()
	runners := []struct {
		name string
		run  func(m *sim.Machine, seed int64) any
	}{
		{"prime-scope", func(m *sim.Machine, _ int64) any {
			return RunScope(m, PrimeScope, ScopeConfig{Iterations: 40})
		}},
		{"prime-prefetch-scope", func(m *sim.Machine, _ int64) any {
			return RunScope(m, PrimePrefetchScope, ScopeConfig{Iterations: 40})
		}},
		{"reload-refresh", func(m *sim.Machine, seed int64) any {
			return RunRefresh(m, ReloadRefresh, RefreshConfig{Iterations: 40}, seed)
		}},
		{"prefetch-refresh-v1", func(m *sim.Machine, seed int64) any {
			return RunRefresh(m, PrefetchRefreshV1, RefreshConfig{Iterations: 40}, seed)
		}},
		{"prefetch-refresh-v2", func(m *sim.Machine, seed int64) any {
			return RunRefresh(m, PrefetchRefreshV2, RefreshConfig{Iterations: 40}, seed)
		}},
		{"flush-reload", func(m *sim.Machine, seed int64) any {
			return RunClassic(m, FlushReload, ClassicConfig{Iterations: 40}, seed)
		}},
		{"flush-flush", func(m *sim.Machine, seed int64) any {
			return RunClassic(m, FlushFlush, ClassicConfig{Iterations: 40}, seed)
		}},
		{"evict-reload", func(m *sim.Machine, seed int64) any {
			return RunClassic(m, EvictReload, ClassicConfig{Iterations: 40}, seed)
		}},
		{"coherence", func(m *sim.Machine, seed int64) any {
			return RunCoherence(m, ClassicConfig{Iterations: 40}, seed)
		}},
		{"kaslr", func(m *sim.Machine, seed int64) any {
			return RunKASLR(m, KASLRConfig{Slots: 32, Probes: 4}, seed)
		}},
	}
	ar := sim.NewArena()
	for i, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			seed := int64(100 + i)
			want := r.run(fresh(p, seed), seed)

			// The previous runner in the table dirties the arena's
			// hierarchy, which the next NewMachine recycles.
			dirty := ar.NewMachine(p, 1<<30, seed+1)
			runners[(i+len(runners)-1)%len(runners)].run(dirty, seed+1)
			m := ar.NewMachine(p, 1<<30, seed)
			if m.H != dirty.H {
				t.Fatal("arena built a new hierarchy instead of recycling the dirtied one")
			}
			if got := r.run(m, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("result on a recycled machine differs from a fresh machine's:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
