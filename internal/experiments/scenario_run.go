package experiments

import (
	"encoding/hex"
	"fmt"

	"leakyway/internal/channel"
	"leakyway/internal/core"
	"leakyway/internal/fault"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/scenario"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
	"leakyway/internal/victim"
)

// The scenario interpreters: one generic Run per scenario kind. A
// validated Spec compiles (FromSpec) into an Experiment-shaped task that
// the standard engine schedules, seeds and renders exactly like a
// hand-coded experiment — the builtin experiments in builtin.go are
// themselves FromSpec over Spec literals, which is what makes template
// runs byte-identical to registered runs.

// FromSpec compiles a declarative scenario into a runnable Experiment.
// The Spec must have passed Validate; the interpreters treat it as
// read-only, so one Spec may back many runs.
func FromSpec(s *scenario.Spec) Experiment {
	return Experiment{
		ID:    s.ID,
		Title: s.Title,
		Paper: s.Paper,
		Run: func(ctx *Context) (*Result, error) {
			return runSpec(ctx, s)
		},
	}
}

// RunSpecs executes compiled scenarios through the standard engine: same
// fan-out and worker budget, same per-task seed derivation (SplitSeed by scenario ID),
// same private-buffer flush order — so a template pack's report is
// byte-identical for any ctx.Jobs, and a template sharing an ID with a
// registered experiment reproduces its section of the full report exactly.
func RunSpecs(ctx *Context, specs []*scenario.Spec) (map[string]*Result, error) {
	list := make([]Experiment, len(specs))
	for i, s := range specs {
		list[i] = FromSpec(s)
	}
	return runExperiments(ctx, list)
}

func runSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	if s.Platform != nil {
		sub := ctx.child(ctx.Seed, ctx.Out, "")
		sub.Platforms = []hier.Config{s.Platform.Config()}
		ctx = sub
	}
	run, ok := interpreters[s.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario %s: no runnable section", s.ID)
	}
	return run(ctx, s)
}

// interpreters maps each scenario kind to its interpreter.
var interpreters = map[string]func(*Context, *scenario.Spec) (*Result, error){
	"statewalk": runStateWalkSpec,
	"pipeline":  runPipelineSpec,
	"sweep":     runSweepSpec,
	"lanes":     runLanesSpec,
	"noise":     runNoiseSpec,
	"faults":    runFaultsSpec,
	"victim":    runVictimSpec,
}

// bitsOf expands a validated "10110" message into bits.
func bitsOf(msg string) []bool {
	out := make([]bool, len(msg))
	for i := range msg {
		out[i] = msg[i] == '1'
	}
	return out
}

// channelFor overlays the spec's sparse channel overrides on the
// platform's calibrated defaults.
func channelFor(s *scenario.Spec, cfg hier.Config) channel.Config {
	return s.Channel.Apply(channel.DefaultConfig(cfg.Name, cfg.FreqGHz))
}

// runStateWalkSpec walks the LLC set state machine (Figure 6): per
// message bit, one send phase and one timed-prefetch read phase, each
// snapshotting the set.
func runStateWalkSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	sw := s.StateWalk
	res := &Result{}
	cfg := ctx.Platforms[0]
	tr := core.NewTrace()
	msg := bitsOf(sw.Message)
	got := make([]bool, len(msg))

	// Bit i's send phase ends at readAt(i), when the receiver's timed
	// prefetch reads the set and resets it for the next bit.
	sendAt := func(i int) int64 { return sw.ReceiverReady + int64(2*i+1)*sw.PhaseStep }
	readAt := func(i int) int64 { return sw.ReceiverReady + int64(2*i+2)*sw.PhaseStep }

	ctx.Parallel(1, func(_ int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		m.SetTracer(ctx.Tracer(shortName(cfg)))
		ep, err := channel.Setup(m, 1)
		if err != nil {
			failf(s.ID, "statewalk: channel setup", err)
		}
		m.Spawn("sender", 0, ep.SenderAS, func(c *sim.Core) {
			tr.Label(c, ep.DS[0], "ds")
			for i, b := range msg {
				c.WaitUntil(sendAt(i))
				if b {
					c.PrefetchNTA(ep.DS[0])
					tr.Snap(m, c, ep.DS[0], "sender prefetches ds to send '1'")
				} else {
					tr.Snap(m, c, ep.DS[0], "sender stays idle to send '0'")
				}
			}
		})
		m.Spawn("receiver", 1, ep.ReceiverAS, func(c *sim.Core) {
			th := core.Calibrate(c, sw.CalibrateSamples)
			tr.Label(c, ep.DR[0], "dr")
			for _, va := range ep.Filler[0] {
				c.Load(va)
			}
			c.PrefetchNTA(ep.DR[0])
			tr.Snap(m, c, ep.DR[0], "receiver prefetches dr to prepare the channel")
			for i, b := range msg {
				c.WaitUntil(readAt(i))
				t := c.TimedPrefetchNTA(ep.DR[0])
				got[i] = th.IsMiss(t)
				tr.Snap(m, c, ep.DR[0], fmt.Sprintf("receiver prefetches dr: %d cycles -> reads '%s'", t, bit(b)))
			}
		})
		m.Run()
	})

	ctx.Printf("%s", tr.Render())
	ok := 1.0
	decoded := make([]byte, len(msg))
	for i := range msg {
		decoded[i] = '0'
		if got[i] {
			decoded[i] = '1'
		}
		if got[i] != msg[i] {
			ok = 0
		}
	}
	ctx.Printf("decoded: %s (want %s)\n", decoded, sw.Message)
	res.Metric("state_walk_correct", ok)
	return res, nil
}

// runPipelineSpec demonstrates the two-set pipelined schedule (Figure 7).
func runPipelineSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	res := &Result{}
	cfg := ctx.Platforms[0]
	ccfg := channelFor(s, cfg)
	msg := bitsOf(s.Pipeline.Message)
	var rep channel.Report
	var recv []bool
	ctx.Parallel(1, func(_ int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<30, ctx.Seed)
		m.SetTracer(ctx.Tracer(shortName(cfg)))
		rep, recv = channel.RunNTPNTP(m, ccfg, msg)
	})

	ctx.Printf("two-set schedule: sender transmits bit i on set i%%2 at iteration i;\n")
	ctx.Printf("the receiver reads bit i from set i%%2 one iteration later.\n\n")
	rows := [][]string{}
	for i, b := range msg {
		rows = append(rows, []string{
			fmt.Sprintf("T=%d", i),
			fmt.Sprintf("set %d", i%2),
			fmt.Sprintf("sends %v", bit(b)),
			fmt.Sprintf("reads %v (bit %d)", bit(recv[i]), i),
		})
	}
	renderTable(ctx, []string{"iteration", "LLC set", "sender", "receiver (next iteration)"}, rows)
	ctx.Printf("errors: %d/%d\n", rep.Errors, rep.Bits)
	res.Metric("pipeline_errors", float64(rep.Errors))
	return res, nil
}

// runSweepSpec measures capacity and BER across transmission intervals
// (Figure 8) for every configured channel on every platform.
func runSweepSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	res := &Result{}
	bits := ctx.Trials(s.Sweep.Bits)
	err := ctx.EachPlatform(func(sub *Context, cfg hier.Config) error {
		base := channelFor(s, cfg)
		// Per-sweep-point trace labels: interval values are part of the
		// label so streams sort (and export) independently of scheduling.
		tf := func(name string, ivs []int64) func(i int) *trace.Tracer {
			if sub.Trace == nil {
				return nil
			}
			return func(i int) *trace.Tracer {
				return sub.Tracer(name, fmt.Sprintf("interval-%05d", ivs[i]))
			}
		}
		sws := make([]channel.SweepResult, len(s.Sweep.Channels))
		for i, ch := range s.Sweep.Channels {
			sws[i] = channel.Sweep(cfg, ch.Runner(), base, ch.Intervals,
				bits, sub.SeedFor(ch.Channel), sub.Parallel, tf(ch.Channel, ch.Intervals))
		}
		for _, sw := range sws {
			sub.Printf("\n%s — %s\n", sw.Channel, sw.Platform)
			rows := [][]string{}
			for _, p := range sw.Points {
				rows = append(rows, []string{
					fmt.Sprintf("%d", p.Interval),
					fmt.Sprintf("%.1f", p.RawRateKBps),
					fmt.Sprintf("%.2f%%", 100*p.BER),
					fmt.Sprintf("%.1f", p.CapacityKBps),
				})
			}
			renderTable(sub, []string{"interval (cyc)", "raw rate (KB/s)", "BER", "capacity (KB/s)"}, rows)
		}
		// With exactly two channels the sweep is a comparison; render the
		// peak-vs-peak line the way Figure 8's caption does.
		if len(sws) == 2 {
			a, b := sws[0].Peak(), sws[1].Peak()
			sub.Printf("\npeaks on %s: %s %.1f KB/s vs %s %.1f KB/s (%.1fx)\n",
				cfg.Name, sws[0].Channel, a.CapacityKBps, sws[1].Channel, b.CapacityKBps,
				a.CapacityKBps/b.CapacityKBps)
		}
		for i, ch := range s.Sweep.Channels {
			res.Metric(shortName(cfg)+"/"+ch.Channel+"_peak_kbps", sws[i].Peak().CapacityKBps)
		}
		return nil
	})
	return res, err
}

// runLanesSpec measures multi-lane NTP+NTP bandwidth scaling: the lanes ×
// offsets grid flattens into independent cells sharded across free
// workers, and the best offset per lane count wins.
func runLanesSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	sp := s.Lanes
	res := &Result{}
	cfg := ctx.Platforms[0]
	bits := ctx.Trials(sp.Bits)
	rows := [][]string{}
	reps := make([]channel.Report, len(sp.LaneCounts)*len(sp.Offsets))
	ctx.Parallel(len(reps), func(cell int, src sim.MachineSource) {
		lanes := sp.LaneCounts[cell/len(sp.Offsets)]
		base := channelFor(s, cfg)
		c := base
		c.Interval = base.ProtocolOverhead + int64(lanes)*sp.LaneCost + sp.Offsets[cell%len(sp.Offsets)]
		seed := ctx.SeedFor(fmt.Sprintf("lanes%d", lanes))
		m := src.NewMachine(cfg, 1<<30, seed)
		reps[cell], _ = channel.RunNTPNTPLanes(m, c, lanes, channel.RandomMessage(bits, seed))
	})
	for li, lanes := range sp.LaneCounts {
		best := channel.Report{}
		for oi := range sp.Offsets {
			if rep := reps[li*len(sp.Offsets)+oi]; rep.CapacityKBps > best.CapacityKBps {
				best = rep
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", lanes),
			fmt.Sprintf("%d", 2*lanes),
			fmt.Sprintf("%d", best.Interval),
			fmt.Sprintf("%.2f%%", 100*best.BER),
			fmt.Sprintf("%.1f KB/s", best.CapacityKBps),
		})
		res.Metric(fmt.Sprintf("lanes%d_capacity", lanes), best.CapacityKBps)
	}
	renderTable(ctx, []string{"lanes", "LLC sets", "best interval (cyc)", "BER", "capacity"}, rows)
	ctx.Printf("aggregate capacity grows sublinearly: the fixed per-iteration protocol cost amortizes\n")
	ctx.Printf("while per-lane probe work accumulates\n")
	return res, nil
}

// runNoiseSpec measures raw and interleaved-Hamming(7,4) reliability
// across co-tenant noise intensities. Every level runs its raw and
// protected transmissions on private machines with a level-derived seed,
// so the levels shard across free workers.
func runNoiseSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	sp := s.Noise
	res := &Result{}
	cfg := ctx.Platforms[0]
	bits := ctx.Trials(sp.Bits)
	base := channelFor(s, cfg)

	rows := [][]string{}
	type levelOut struct {
		raw      channel.Report
		residual float64
	}
	outs := make([]levelOut, len(sp.Periods))
	ctx.Parallel(len(sp.Periods), func(pi int, src sim.MachineSource) {
		c := base
		c.NoisePeriod = sp.Periods[pi]
		seed := ctx.SeedFor(fmt.Sprintf("noise%d", sp.Periods[pi]))

		msg := channel.RandomMessage(bits, seed)

		// Raw transmission.
		m := src.NewMachine(cfg, 1<<30, seed)
		outs[pi].raw, _ = channel.RunNTPNTP(m, c, msg)

		// Hamming(7,4)-protected transmission of the same payload,
		// block-interleaved so that burst errors (a stuck sender line
		// silences a stretch of '1's until the next noise event) land
		// in distinct codewords.
		outs[pi].residual = hammingResidual(msg, sp.InterleaveDepth, func(enc []bool) []bool {
			_, encBits := channel.RunNTPNTP(src.NewMachine(cfg, 1<<30, seed), c, enc)
			return encBits
		})
	})
	for pi, period := range sp.Periods {
		label := "quiet"
		if period > 0 {
			label = fmt.Sprintf("1 fill / %dK cycles", period/1000)
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%.2f%%", 100*outs[pi].raw.BER),
			fmt.Sprintf("%.1f KB/s", outs[pi].raw.CapacityKBps),
			fmt.Sprintf("%.2f%%", 100*outs[pi].residual),
		})
		key := fmt.Sprintf("noise%d", period)
		res.Metric(key+"_raw_ber", outs[pi].raw.BER)
		res.Metric(key+"_hamming_residual", outs[pi].residual)
	}
	renderTable(ctx, []string{"co-tenant noise", "raw BER", "raw capacity", "interleaved Hamming(7,4) residual"}, rows)
	ctx.Printf("noise produces both isolated flips and bursts (a stuck sender line silences '1's\n")
	ctx.Printf("until the next eviction); interleaved Hamming(7,4) absorbs both — the reliable\n")
	ctx.Printf("encoding the paper prescribes for noisy conditions\n")
	return res, nil
}

// hammingResidual sends msg block-interleaved Hamming(7,4)-encoded through
// tx, which transmits the encoded bits and returns what was received, and
// returns the fraction of msg bits still wrong after decoding.
func hammingResidual(msg []bool, depth int, tx func(enc []bool) []bool) float64 {
	enc := channel.Interleave(channel.EncodeHamming74(msg), depth)
	dec := channel.DecodeHamming74(channel.Deinterleave(tx(enc), depth))
	decErr := 0
	for i := range msg {
		if i >= len(dec) || dec[i] != msg[i] {
			decErr++
		}
	}
	return float64(decErr) / float64(len(msg))
}

// runFaultsSpec runs every configured fault scenario against the raw
// channel, an interleaved-Hamming encoding and the ARQ transport.
// Injection strengths are proportional to the run horizon, so raw
// transmissions of different lengths see a comparable fault density.
func runFaultsSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	sp := s.Faults
	res := &Result{}
	cfg := ctx.Platforms[0]
	rawBits := ctx.Trials(sp.RawBits)
	arqBits := sp.ARQBits

	base := channelFor(s, cfg)
	tcfg := s.Transport.Apply(channel.DefaultTransportConfig(cfg.Name, cfg.FreqGHz))

	scenarios := sp.Scenarios
	type out struct {
		raw      channel.Report
		residual float64
		arq      channel.TransportReport
		fired    int
	}
	outs := make([]out, len(scenarios))

	// inject stages a scenario against a machine whose channel agents are
	// about to be spawned; the target sets' noise pools double as the
	// pollution working set.
	inject := func(m *sim.Machine, sc fault.Scenario, seedv, horizon int64, pollAS fault.Target, log *fault.Log) {
		if sc == nil {
			return
		}
		tgt := pollAS
		tgt.Sender, tgt.Receiver = "sender", "receiver"
		tgt.SpareCore = 3
		tgt.Horizon = horizon
		log.Attach(m)
		sc.Inject(m, tgt, seedv, log)
	}

	// Every scenario cell runs its three variants on private machines with
	// a scenario-derived seed, so cells shard across free workers and the
	// result is schedule-independent. The seed key is "faults"+key
	// regardless of the spec's ID (the ID already differentiates ctx.Seed).
	ctx.Parallel(len(scenarios), func(si int, src sim.MachineSource) {
		sc := scenarios[si]
		seedv := ctx.SeedFor("faults", sc.Key)
		msg := channel.RandomMessage(rawBits, seedv)
		log := &fault.Log{}

		// Raw channel under the scenario.
		{
			m := src.NewMachine(cfg, 1<<30, seedv)
			m.SetTracer(ctx.Tracer(sc.Key, "raw"))
			ep, err := channel.Setup(m, 2)
			if err != nil {
				failf(s.ID, "faults/"+sc.Key+": raw channel setup", err)
			}
			horizon := base.Start + int64(rawBits)*base.Interval
			inject(m, sc.Compile(), seedv, horizon,
				fault.Target{PolluteAS: ep.NoiseAS, Pollute: ep.NoiseLines}, log)
			outs[si].raw, _ = channel.RunNTPNTPOn(m, base, ep, msg)
			outs[si].fired = len(log.Fired())
		}

		// Interleaved Hamming(7,4) over the same raw channel.
		outs[si].residual = hammingResidual(msg, sp.InterleaveDepth, func(enc []bool) []bool {
			m := src.NewMachine(cfg, 1<<30, seedv)
			m.SetTracer(ctx.Tracer(sc.Key, "hamming"))
			ep, err := channel.Setup(m, 2)
			if err != nil {
				failf(s.ID, "faults/"+sc.Key+": hamming channel setup", err)
			}
			horizon := base.Start + int64(len(enc))*base.Interval
			inject(m, sc.Compile(), seedv, horizon,
				fault.Target{PolluteAS: ep.NoiseAS, Pollute: ep.NoiseLines}, &fault.Log{})
			_, encBits := channel.RunNTPNTPOn(m, base, ep, enc)
			return encBits
		})

		// ARQ transport under the same scenario.
		{
			payload := channel.RandomMessage(arqBits, seedv+1)
			m := src.NewMachine(cfg, 1<<30, seedv)
			m.SetTracer(ctx.Tracer(sc.Key, "arq"))
			dx, err := channel.SetupDuplex(m)
			if err != nil {
				failf(s.ID, "faults/"+sc.Key+": duplex ARQ setup", err)
			}
			frames := (arqBits + channel.FramePayloadBits - 1) / channel.FramePayloadBits
			horizon := tcfg.Channel.Start + int64(frames)*170*tcfg.Channel.Interval
			inject(m, sc.Compile(), seedv, horizon,
				fault.Target{PolluteAS: dx.NoiseAS, Pollute: dx.NoiseLines}, &fault.Log{})
			rep, _, err := channel.RunARQOn(m, tcfg, dx, payload)
			if err != nil {
				failf(s.ID, "faults/"+sc.Key+": ARQ transfer", err)
			}
			outs[si].arq = rep
		}
	})

	rows := [][]string{}
	for si, sc := range scenarios {
		o := outs[si]
		arqCell := fmt.Sprintf("0 errors, %d retx, %.2f KB/s", o.arq.Retransmits, o.arq.GoodputKBps)
		if !o.arq.Delivered || o.arq.ResidualErrors > 0 {
			arqCell = fmt.Sprintf("FAILED (%d residual)", o.arq.ResidualErrors)
		}
		rows = append(rows, []string{
			sc.Key,
			fmt.Sprintf("%d", o.fired),
			fmt.Sprintf("%.2f%%", 100*o.raw.BER),
			fmt.Sprintf("%.2f%%", 100*o.residual),
			arqCell,
		})
		key := "faults_" + sc.Key
		res.Metric(key+"_raw_ber", o.raw.BER)
		res.Metric(key+"_hamming_residual", o.residual)
		res.Metric(key+"_arq_residual", float64(o.arq.ResidualErrors)/float64(o.arq.PayloadBits))
		res.Metric(key+"_arq_delivered", b2f(o.arq.Delivered))
		res.Metric(key+"_arq_goodput_kbps", o.arq.GoodputKBps)
	}
	renderTable(ctx, []string{"fault scenario", "fired", "raw BER", "interleaved Hamming residual", "ARQ transport"}, rows)
	ctx.Printf("every injected fault corrupts the raw channel; forward error correction absorbs\n")
	ctx.Printf("some of it, but only the ARQ transport (CRC-8 frames, retransmission, adaptive\n")
	ctx.Printf("recalibration) delivers a byte-exact message under all of them\n")
	return res, nil
}

// runVictimSpec runs a victim program under its spy: the T-table AES
// victim encrypts on one core while a Flush+Reload monitor on another
// recovers the high nibble of every key byte by first-round elimination.
func runVictimSpec(ctx *Context, s *scenario.Spec) (*Result, error) {
	sp := s.Victim
	res := &Result{}
	cfg := ctx.Platforms[0]
	var key [16]byte
	raw, err := hex.DecodeString(sp.Key)
	if err != nil || len(raw) != 16 {
		return nil, fmt.Errorf("scenario %s: bad victim key %q", s.ID, sp.Key)
	}
	copy(key[:], raw)

	var obs *[]victim.Observation
	ctx.Parallel(1, func(_ int, src sim.MachineSource) {
		m := src.NewMachine(cfg, 1<<28, ctx.Seed)
		m.SetTracer(ctx.Tracer(shortName(cfg)))
		victimAS := m.NewSpace()
		spyAS := m.NewSpace()
		av, err := victim.NewAESVictim(victimAS, key, sp.Window, sp.Start)
		if err != nil {
			failf(s.ID, "victim: alloc T-table", err)
		}
		if err := spyAS.MapShared(victimAS, av.Table, mem.PageSize); err != nil {
			failf(s.ID, "victim: map shared T-table", err)
		}
		av.Spawn(m, 1, victimAS, ctx.SeedFor("victim"))
		obs = victim.SpyTTable(m, 0, spyAS, av, sp.Encryptions)
		m.Run()
	})

	ctx.Printf("observed %d encryptions on %s\n", len(*obs), cfg.Name)
	recovered, err := victim.RecoverHighNibbles(*obs)
	if err != nil {
		return nil, err
	}
	actual := make([]string, 16)
	got := make([]string, 16)
	okNib := 0
	for i := range key {
		actual[i] = fmt.Sprintf("%x_", key[i]>>4)
		got[i] = fmt.Sprintf("%x_", recovered[i]>>4)
		if recovered[i] == key[i]&0xF0 {
			okNib++
		}
	}
	renderTable(ctx, []string{"", "key bytes (high nibble | low nibble unknown)"}, [][]string{
		{"actual:", fmt.Sprint(actual)},
		{"recovered:", fmt.Sprint(got)},
	})
	if okNib == 16 {
		ctx.Printf("all 16 high nibbles recovered — 64 bits of AES key leaked through the cache\n")
	} else {
		ctx.Printf("%d/16 high nibbles recovered; increase encryptions for full recovery\n", okNib)
	}
	res.Metric("victim_observations", float64(len(*obs)))
	res.Metric("victim_nibbles_recovered", float64(okNib))
	res.Metric("victim_key_recovered", b2f(okNib == 16))
	return res, nil
}
