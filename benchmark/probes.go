package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"leakyway/internal/channel"
	"leakyway/internal/experiments"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/policy"
	"leakyway/internal/scenario"
	"leakyway/internal/service"
	"leakyway/internal/sim"
	"leakyway/internal/telemetry"
)

// The layer probes run once per traced run, in their own process, at fixed
// sizes. Each times one layer through its public functions, so a change to
// that layer shows here before it shows end to end. Every workload's traced
// run reports the same probes; the workload's own traced round adds the
// self-time table and the tracing overhead.

const probesName = "probes"

func runProbes(rc *roundCtx) error {
	m := map[string]float64{}
	rc.res.Layer = m
	seed := rc.spec.Seed
	for _, probe := range []func(map[string]float64, int64) error{
		probeExperiments, probeKernels, probeSim, probeHier, probeMem, probeChannel, probeScenario,
	} {
		if err := probe(m, seed); err != nil {
			return err
		}
	}
	return probeService(rc, m)
}

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func(k int) error) (float64, error) {
	xs := make([]float64, reps)
	for k := range xs {
		t0 := time.Now()
		if err := fn(k); err != nil {
			return 0, err
		}
		xs[k] = time.Since(t0).Seconds()
	}
	return median(xs), nil
}

// probeExperiments times every registered experiment alone and serially
// (RunOne, -jobs 1), then one whole suite at -jobs 2; their ratio is how
// much the engine's worker pool overlaps.
func probeExperiments(m map[string]float64, seed int64) error {
	var serial float64
	for _, id := range experiments.IDs() {
		ctx := experiments.NewContext(io.Discard)
		ctx.Seed = seed
		ctx.Jobs = 1
		t0 := time.Now()
		if _, err := experiments.RunOne(ctx, id); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		m["experiments."+id+"_s"] = d
		serial += d
	}
	_, wall, err := runSuite(nil, seed)
	if err != nil {
		return err
	}
	m["experiments.parallel_gain"] = serial / wall.Seconds()
	return nil
}

// probeKernels times one quick fig8 run with the CLI's configuration,
// which takes the batch kernel, and with exactly the daemon's
// (service.EngineRunner: a deadline context, a progress tracker and a
// counting trace collector), which falls back to the scalar kernel.
func probeKernels(m map[string]float64, seed int64) error {
	spec, _, err := fig8Template()
	if err != nil {
		return err
	}
	batch, err := medianOf(3, func(int) error {
		_, err := directFig8(seed)
		return err
	})
	if err != nil {
		return err
	}
	daemon, err := medianOf(3, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sub := service.Submission{Seed: seed, Quick: true, Jobs: 1, Platform: "both"}
		_, err := service.EngineRunner(ctx, sub, spec, telemetry.NewProgress())
		return err
	})
	if err != nil {
		return err
	}
	m["experiments.fig8_quick_batch_s"] = batch
	m["experiments.fig8_quick_daemon_s"] = daemon
	m["experiments.daemon_kernel_ratio"] = daemon / batch
	return nil
}

func probeSim(m map[string]float64, seed int64) error {
	plat := platform.Skylake()
	fresh, err := medianOf(3, func(k int) error {
		_, err := sim.NewMachine(plat, 1<<30, seed+int64(k))
		return err
	})
	if err != nil {
		return err
	}
	m["sim.machine_new_ms"] = fresh * 1e3

	// Recycled construction, as a batch-kernel trial sees it: the arena
	// hands back a reset hierarchy and the memoized frame shuffle.
	var recycled []float64
	sim.RunBatch(21, 1, sim.NewArena(), func(i int, src sim.MachineSource) {
		t0 := time.Now()
		src.NewMachine(plat, 1<<30, seed)
		if i > 0 {
			recycled = append(recycled, time.Since(t0).Seconds())
		}
	})
	m["sim.recycled_machine_us"] = median(recycled) * 1e6

	// Two agents alternating WaitUntil targets hand the machine back and
	// forth on every call.
	const handoffs = 100_000
	mach, err := sim.NewMachine(plat, 1<<26, seed)
	if err != nil {
		return err
	}
	for a := int64(0); a < 2; a++ {
		mach.Spawn(fmt.Sprintf("agent%d", a), int(a), nil, func(c *sim.Core) {
			for i := int64(0); i < handoffs; i++ {
				c.WaitUntil((2*i + a) * 100)
			}
		})
	}
	m["sim.handoff_ns"] = nsPer(1, func(int) { mach.Run() }) / (2 * handoffs)

	const loads = 1_000_000
	if mach, err = sim.NewMachine(plat, 1<<26, seed); err != nil {
		return err
	}
	mach.Spawn("timed", 0, nil, func(c *sim.Core) {
		buf := c.Alloc(mem.PageSize)
		for i := 0; i < loads; i++ {
			c.TimedLoad(buf)
		}
	})
	m["sim.timed_load_ns"] = nsPer(1, func(int) { mach.Run() }) / loads
	return nil
}

// probeHier drives one hierarchy directly with physical addresses.
func probeHier(m map[string]float64, _ int64) error {
	h, err := hier.New(platform.Skylake())
	if err != nil {
		return err
	}
	var now int64
	step := func(r hier.Result) { now += r.Latency }
	line := func(i int) mem.PAddr { return mem.PAddr(uint64(i) * mem.LineSize) }
	step(h.Load(0, 0, now))
	m["hier.load_l1_ns"] = nsPer(2_000_000, func(int) { step(h.Load(0, 0, now)) })
	// Lines scattered over 256 MiB, far beyond the 8 MiB LLC.
	m["hier.load_dram_ns"] = nsPer(500_000, func(i int) { step(h.Load(0, line(i*2654435761%(1<<22)), now)) })
	m["hier.prefetchnta_ns"] = nsPer(1_000_000, func(i int) { step(h.PrefetchNTA(0, line(i%4096), now)) })
	m["hier.flush_ns"] = nsPer(1_000_000, func(i int) { step(h.Flush(line(i%4096), now)) })

	set := policy.NewQuadAge().NewSet(16)
	all := policy.AllWays(16)
	m["policy.quadage_victim_ns"] = nsPer(5_000_000, func(int) { set.OnFill(set.Victim(all), policy.ClassLoad) })
	return nil
}

func probeMem(m map[string]float64, seed int64) error {
	as := mem.NewAddressSpace(mem.NewPhysMem(1<<30, seed))
	base, err := as.Alloc(64 << 20)
	if err != nil {
		return err
	}
	vas := make([]mem.VAddr, 4096)
	for i := range vas {
		vas[i] = base + mem.VAddr(uint64(i)*2654435761%(64<<20))
	}
	m["mem.translate_ns"] = nsPer(2_000_000, func(i int) {
		if _, err := as.Translate(vas[i%len(vas)]); err != nil {
			panic(err) // every address lies in the mapped region
		}
	})
	shuffle, err := medianOf(3, func(k int) error {
		mem.NewFrameShuffle(1<<30, seed+int64(k))
		return nil
	})
	m["mem.frame_shuffle_ms"] = shuffle * 1e3
	return err
}

// probeChannel transmits a shorter message than channel-stream and reads
// the simulated cache counters per transmitted bit. The counts are exact
// (the simulator is deterministic); the host time per L1 access relates
// the simulator's speed to the work simulated.
func probeChannel(m map[string]float64, seed int64) error {
	const bits = 250_000
	plat, cfg := streamConfig()
	msg := channel.RandomMessage(bits, seed)
	mach, err := sim.NewMachine(plat, 1<<30, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	channel.RunNTPNTP(mach, cfg, msg)
	d := time.Since(t0)
	var l1 uint64
	for c := 0; c < plat.Cores; c++ {
		st := mach.H.L1Stats(c)
		l1 += st.Hits + st.Misses
	}
	llc := mach.H.LLCStats()
	m["channel.transmit_s_per_mbit"] = d.Seconds() * 1e6 / bits
	m["hier.l1_accesses_per_bit"] = float64(l1) / bits
	m["hier.llc_misses_per_bit"] = float64(llc.Misses) / bits
	m["hier.llc_evictions_per_bit"] = float64(llc.Evictions) / bits
	m["hier.host_ns_per_l1_access"] = float64(d.Nanoseconds()) / float64(l1)
	return nil
}

// probeScenario times the daemon's admission work on a template: the strict
// parse, and the canonical marshal plus sha256 behind the cache key.
func probeScenario(m map[string]float64, _ int64) error {
	_, tmpl, err := fig8Template()
	if err != nil {
		return err
	}
	spec, err := scenario.Parse([]byte(tmpl), "fig8.yaml")
	if err != nil {
		return err
	}
	m["scenario.parse_us"] = nsPer(2000, func(int) {
		if _, err := scenario.Parse([]byte(tmpl), "fig8.yaml"); err != nil {
			panic(err) // parsed above
		}
	}) / 1e3
	m["scenario.key_us"] = nsPer(2000, func(int) { sha256.Sum256(scenario.CanonicalBytes(spec)) }) / 1e3
	return nil
}

// probeService runs an unloaded service with its Runner and FS hooks: a few
// misses one at a time, each split into its stages, then hits on their
// seeds. Under load the same stages appear in daemon-mixed's self-time
// table.
func probeService(rc *roundCtx, m map[string]float64) error {
	const misses, hits = 3, 200
	dir, err := rc.workDir()
	if err != nil {
		return err
	}
	d, err := startDaemon(dir, true)
	if err != nil {
		return err
	}
	var submit, queue, runner, finish, fetch, share []float64
	seeds := make([]int64, misses)
	arts := make([][]byte, misses)
	syncs0, written0 := d.fs.syncs.Load(), d.fs.written.Load()
	for k := range seeds {
		seeds[k] = inputSeed(rc.spec.Seed, probesName, "miss", k)
		input := fmt.Sprintf("fig8quick:%d", seeds[k])
		t0 := time.Now()
		v, _, err := d.submit(seeds[k])
		t1 := time.Now()
		if err == nil {
			v, _, _, err = d.await(v.ID)
		}
		seen := time.Now()
		if err == nil {
			err = checkDone(v)
		}
		if err == nil {
			arts[k], err = d.get("/v1/jobs/" + v.ID + "/artifacts/metrics")
		}
		t3 := time.Now()
		start, end, ok := d.runs.get(seeds[k])
		if err == nil && !ok {
			err = fmt.Errorf("runner hook saw no run for seed %d", seeds[k])
		}
		if err != nil {
			d.close()
			return fmt.Errorf("service probe: %s: %w", input, err)
		}
		rc.ok(opRecord{Kind: "probe", Input: input, Digest: sha256Hex(arts[k])})
		submit = append(submit, t1.Sub(t0).Seconds())
		// The worker may pick the job up before the submit response reaches
		// the client, so the wait is measured from the request.
		queue = append(queue, start.Sub(t0).Seconds())
		runner = append(runner, end.Sub(start).Seconds())
		finish = append(finish, seen.Sub(end).Seconds())
		fetch = append(fetch, t3.Sub(seen).Seconds())
		share = append(share, end.Sub(start).Seconds()/t3.Sub(t0).Seconds())
	}
	missSyncs, missWritten := d.fs.syncs.Load()-syncs0, d.fs.written.Load()-written0

	var hitLat, hitSubmit []float64
	syncs0 = d.fs.syncs.Load()
	for i := 0; i < hits; i++ {
		k := i % misses
		t0 := time.Now()
		if submitted, ok := d.hit(rc, seeds[k], arts[k], t0); ok {
			hitLat = append(hitLat, time.Since(t0).Seconds())
			hitSubmit = append(hitSubmit, submitted.Sub(t0).Seconds())
		}
	}
	hitSyncs := d.fs.syncs.Load() - syncs0
	if err := d.close(); err != nil {
		return err
	}
	m["service.submit_miss_ms"] = median(submit) * 1e3
	m["service.submit_hit_ms"] = median(hitSubmit) * 1e3
	m["service.queue_wait_ms"] = median(queue) * 1e3
	m["service.runner_s"] = median(runner)
	m["service.finish_ms"] = median(finish) * 1e3
	m["service.fetch_ms"] = median(fetch) * 1e3
	m["service.engine_share"] = median(share)
	m["service.hit_p50_ms"] = quantile(hitLat, 0.5) * 1e3
	m["service.hit_p90_ms"] = quantile(hitLat, 0.9) * 1e3
	m["service.fsyncs_per_miss"] = float64(missSyncs) / misses
	m["service.bytes_written_per_miss"] = float64(missWritten) / misses
	m["service.fsyncs_per_hit"] = float64(hitSyncs) / hits
	m["service.fsync_ms"] = float64(d.fs.syncNs.Load()) / float64(d.fs.syncs.Load()) / 1e6
	return nil
}
