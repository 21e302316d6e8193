package experiments

import (
	"fmt"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/policy"
	"leakyway/internal/sim"
	"leakyway/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "pollution",
		Title: "Extension — the countermeasure's performance cost (Section VI-D)",
		Paper: "stock insertion bounds PREFETCHNTA pollution to 1/w of a set; the hardened policy (load=1, NTA=2) gives up that guarantee",
		Run:   runPollution,
	})
}

// runPollution measures a cache-resident worker's load latency while a
// co-running streamer prefetches a huge non-temporal buffer through the
// LLC. Under the stock policy the streamer's NTA lines are always the
// eviction candidates, so they churn one way per set and the worker keeps
// its working set. Under the Section VI-D countermeasure the streamer's
// lines (age 2) outrank the worker's well-aged hot lines, and the worker
// starts missing — the performance regression the paper warns the
// mitigation costs.
func runPollution(ctx *Context) (*Result, error) {
	res := &Result{}
	rows := [][]string{}
	variants := []struct {
		name string
		key  string
		pol  func() policy.Policy
	}{
		{"stock Intel quad-age (NTA pollution ≤ 1 way)", "stock", func() policy.Policy { return policy.NewQuadAge() }},
		{"countermeasure (load=1, NTA=2)", "countermeasure", func() policy.Policy { return policy.NewQuadAgeCountermeasure() }},
	}
	// The worker/streamer interleaving is sensitive to the frame shuffle,
	// so each policy averages several independent machines; the variant ×
	// trial grid shards across free workers.
	const trialsPer = 3
	type cellOut struct {
		mean, hitRate float64
	}
	cells := make([]cellOut, len(variants)*trialsPer)
	ctx.Parallel(len(cells), func(cell int, src sim.MachineSource) {
		variant := variants[cell/trialsPer]
		seed := ctx.SeedFor(variant.key, fmt.Sprint(cell%trialsPer))
		// A scaled-down hierarchy keeps the run fast while preserving
		// the level ratios that matter: the worker's hot set must
		// overflow the private caches yet fit the LLC with ways to
		// spare. The interaction is per-set, so this loses no
		// generality.
		p := ctx.Platforms[0]
		p.LLCPolicy = variant.pol()
		p.L2Sets = 64 // 16 KiB L2
		p.LLCSlices = 1
		p.LLCSetsPerSlice = 256 // 256 KiB LLC
		m := src.NewMachine(p, 1<<30, seed)

		// The streamer NTA-walks a buffer much larger than the LLC in
		// column-major order — the strided pattern of a non-temporal
		// matrix walk — so each LLC set sees short bursts of congruent
		// prefetches. Under the stock policy each burst churns the one
		// candidate way; under the countermeasure the first storm of a
		// burst ages the worker's lines and the rest of the burst
		// evicts them.
		const burst = 32                       // 2x the LLC associativity: the stream self-evicts
		rowBytes := uint64(256 * mem.LineSize) // one line per LLC set
		m.SpawnDaemon("streamer", 1, nil, func(c *sim.Core) {
			buf := c.Alloc(burst * rowBytes)
			for {
				for col := uint64(0); col < rowBytes; col += mem.LineSize {
					for row := uint64(0); row < burst; row++ {
						c.PrefetchNTA(buf + mem.VAddr(row*rowBytes+col))
					}
				}
			}
		})

		// The worker loops over a hot set filling ~10 of the 16 ways of
		// every LLC set — comfortably cache-resident when undisturbed.
		var lat []int64
		var hot []float64
		m.Spawn("worker", 0, nil, func(c *sim.Core) {
			hotBytes := uint64(10 * 256 * mem.LineSize)
			buf := c.Alloc(hotBytes)
			// Sample at least one full pass over the hot set: fewer
			// samples can miss the streamer's bursts entirely and report
			// a spuriously clean countermeasure run.
			warm := ctx.Trials(6000)
			if min := int(hotBytes / mem.LineSize); warm < min {
				warm = min
			}
			for pass := 0; pass < 2; pass++ {
				for off := uint64(0); off < hotBytes; off += mem.LineSize {
					c.Load(buf + mem.VAddr(off))
				}
			}
			n := 0
			for n < warm {
				for off := uint64(0); off < hotBytes && n < warm; off += mem.LineSize {
					r := c.Load(buf + mem.VAddr(off))
					lat = append(lat, r.Latency)
					if r.Level != hier.LevelMem {
						hot = append(hot, 1)
					} else {
						hot = append(hot, 0)
					}
					n++
				}
			}
		})
		m.Run()

		cells[cell].mean = stats.Mean(lat)
		hitRate := 0.0
		for _, h := range hot {
			hitRate += h
		}
		cells[cell].hitRate = hitRate / float64(len(hot))
	})
	for vi, variant := range variants {
		var mean, hitRate float64
		for t := 0; t < trialsPer; t++ {
			mean += cells[vi*trialsPer+t].mean
			hitRate += cells[vi*trialsPer+t].hitRate
		}
		mean /= trialsPer
		hitRate /= trialsPer
		rows = append(rows, []string{
			variant.name,
			fmt.Sprintf("%.1f cycles", mean),
			fmt.Sprintf("%.1f%%", 100*hitRate),
		})
		res.Metric(variant.key+"_worker_latency", mean)
		res.Metric(variant.key+"_worker_hitrate", hitRate)
	}
	renderTable(ctx, []string{"LLC insertion policy", "worker mean load latency", "worker cache-hit rate"}, rows)
	ctx.Printf("the mitigation trades the channel for throughput: victims of non-temporal streams\n")
	ctx.Printf("lose the 1/w pollution bound the stock policy guarantees\n")
	return res, nil
}
