package hier

import (
	"fmt"
	"math/rand"
	"slices"
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

// checkNoDuplicates verifies the precondition cache.Install relies on held
// at every fill: no set of any L1, L2, LLC or directory cache holds one
// line in two ways.
func checkNoDuplicates(h *Hierarchy) error {
	for _, c := range slices.Concat(h.l1, h.l2, h.llc, h.dir) {
		for set := 0; set < c.Sets(); set++ {
			lines := c.ViewSet(set).Lines
			for i, a := range lines {
				for _, b := range lines[i+1:] {
					if a.Valid && b.Valid && a.Addr == b.Addr {
						return fmt.Errorf("%s set %d holds %v twice", c.Name(), set, a.Addr)
					}
				}
			}
		}
	}
	return nil
}

// TestNoDuplicateLinesUnderRandomOps drives three-core hierarchies with the
// HW prefetchers on — inclusive, way-partitioned, and non-inclusive with a
// coherence directory — through random Load, PrefetchNTA, PrefetchT0, Store
// and Flush streams, and checks after every op that no cache set holds a
// line twice. The address pool mixes scattered lines with more congruent
// lines than an LLC set has ways. With 500-cycle clock steps every fill
// completes before the next op; with steps of 0-7 cycles fills are still
// in flight when later ones arrive, and some LLC fills are dropped, which
// the test requires to happen.
func TestNoDuplicateLinesUnderRandomOps(t *testing.T) {
	configs := map[string]Config{
		"prefetch":    sharerTestConfig(0),
		"partitioned": sharerTestConfig(2),
	}
	dir := sharerTestConfig(0)
	dir.NonInclusive, dir.DirectoryWays, dir.DirectoryNTAIsVictim = true, 4, true
	configs["directory"] = dir
	for name, cfg := range configs {
		for _, small := range []bool{false, true} {
			dropped := 0
			for seed := int64(1); seed <= 8; seed++ {
				cfg.Seed = seed
				h := MustNew(cfg)
				rng := rand.New(rand.NewSource(seed))
				addrs := congruentLines(h, mem.PAddr(0x4040), cfg.LLCWays+4)
				for range 16 {
					addrs = append(addrs, mem.PAddr(rng.Intn(1<<14))&^(mem.LineSize-1))
				}
				now := int64(0)
				for i := range 300 {
					if small {
						now += rng.Int63n(8)
					} else {
						now += 500
					}
					pa := addrs[rng.Intn(len(addrs))]
					core := rng.Intn(cfg.Cores)
					var res Result
					switch rng.Intn(6) {
					case 0, 1:
						res = h.Load(core, pa, now)
					case 2:
						res = h.PrefetchNTA(core, pa, now)
					case 3:
						res = h.PrefetchT0(core, pa, now)
					case 4:
						res = h.Store(core, pa, now)
					case 5:
						res = h.Flush(pa, now)
					}
					if res.Dropped {
						dropped++
					}
					if err := checkNoDuplicates(h); err != nil {
						t.Fatalf("%s small=%v seed %d op %d: %v", name, small, seed, i, err)
					}
				}
			}
			if small && dropped == 0 {
				t.Errorf("%s: no LLC fill was dropped with small clock steps", name)
			}
		}
	}
}
