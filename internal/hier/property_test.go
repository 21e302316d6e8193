package hier

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"leakyway/internal/mem"
)

// TestInclusionInvariantUnderRandomOps drives three-core hierarchies (HW
// prefetchers on, LLC unpartitioned and way-partitioned) with random
// operation sequences and checks, after every step, that every line present
// in any private cache is also present in the LLC — the inclusion property
// all the paper's cross-core attacks depend on — with the holding core's
// bit set in the line's sharer mask, and that the sharer-filtered snoop
// agrees with a brute-force scan of every core.
func TestInclusionInvariantUnderRandomOps(t *testing.T) {
	var failure error
	f := func(seed int64, ops []uint16) bool {
		for _, part := range []int{0, 2} {
			cfg := sharerTestConfig(part)
			cfg.Seed = seed
			h := MustNew(cfg)
			rng := rand.New(rand.NewSource(seed))
			// A small physical region so sets conflict often.
			addrs := make([]mem.PAddr, 64)
			for i := range addrs {
				addrs[i] = mem.PAddr(rng.Intn(1<<14)) &^ (mem.LineSize - 1)
			}
			now := int64(0)
			for i, op := range ops {
				pa := addrs[int(op)%len(addrs)]
				corenum := int(op>>6) % cfg.Cores
				now += 500
				sharerOp(h, int(op>>8), corenum, pa, now)
				if failure = checkSharers(h); failure == nil {
					failure = checkSnoop(h, (corenum+1)%cfg.Cores, pa)
				}
				if failure != nil {
					failure = fmt.Errorf("partition %d, op %d: %w", part, i, failure)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(failure, err)
	}
}

// TestLatencyMatchesLevel: for every random op, the reported latency must
// belong to the reported level's band.
func TestLatencyMatchesLevel(t *testing.T) {
	cfg := testConfig()
	lat := cfg.Lat
	h := MustNew(cfg)
	rng := rand.New(rand.NewSource(3))
	now := int64(0)
	for i := 0; i < 3000; i++ {
		pa := mem.PAddr(rng.Intn(1<<13)) &^ (mem.LineSize - 1)
		corenum := rng.Intn(cfg.Cores)
		now += 300
		res := h.Load(corenum, pa, now)
		var want int64
		switch res.Level {
		case LevelL1:
			want = lat.L1Hit
		case LevelL2:
			want = lat.L2Hit
		case LevelLLC:
			want = lat.LLCHit
		case LevelMem:
			want = lat.Mem
		}
		if res.Latency != want {
			t.Fatalf("op %d: level %v latency %d, want %d", i, res.Level, res.Latency, want)
		}
	}
}

// TestOccupancyNeverExceedsWays: no LLC set ever reports more valid lines
// than its associativity, under heavy random churn.
func TestOccupancyNeverExceedsWays(t *testing.T) {
	cfg := testConfig()
	h := MustNew(cfg)
	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		pa := mem.PAddr(rng.Intn(1<<15)) &^ (mem.LineSize - 1)
		now += 300
		if rng.Intn(3) == 0 {
			h.PrefetchNTA(rng.Intn(cfg.Cores), pa, now)
		} else {
			h.Load(rng.Intn(cfg.Cores), pa, now)
		}
		if occ := h.LLCOccupancy(pa); occ > cfg.LLCWays {
			t.Fatalf("set occupancy %d exceeds %d ways", occ, cfg.LLCWays)
		}
	}
}
