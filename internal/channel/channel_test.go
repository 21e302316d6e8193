package channel

import (
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// run builds a fresh Skylake machine and transmits msg.
func run(t *testing.T, runner Runner, mod func(*Config), msg []bool, seed int64) (Report, []bool) {
	t.Helper()
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	if mod != nil {
		mod(&cfg)
	}
	m := sim.MustNewMachine(cfgp, 1<<30, seed)
	return runner(m, cfg, msg)
}

func TestNTPNTPNoiselessIsPerfect(t *testing.T) {
	msg := RandomMessage(600, 11)
	rep, recv := run(t, RunNTPNTP, func(c *Config) {
		c.Interval = 2000
		c.NoisePeriod = 0
	}, msg, 1)
	if rep.Errors != 0 {
		t.Fatalf("noiseless channel had %d/%d errors", rep.Errors, rep.Bits)
	}
	for i := range msg {
		if recv[i] != msg[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if rep.CapacityKBps <= 0 || rep.RawRateKBps <= 0 {
		t.Fatalf("bogus rates: %+v", rep)
	}
}

func TestNTPNTPSingleSetNeedsSpacing(t *testing.T) {
	msg := RandomMessage(400, 12)
	// Generous spacing: works.
	repGood, _ := run(t, RunNTPNTP, func(c *Config) {
		c.Sets = 1
		c.Interval = 2500
		c.ReceiverOffset = 800
		c.NoisePeriod = 0
	}, msg, 2)
	if repGood.BER > 0.01 {
		t.Fatalf("spaced single-set channel BER = %.3f, want ~0", repGood.BER)
	}
	// Receiver probing inside the sender's DRAM fill window: the
	// in-flight line cannot be evicted and errors explode (the effect
	// that motivates the two-set schedule of Figure 7).
	repBad, _ := run(t, RunNTPNTP, func(c *Config) {
		c.Sets = 1
		c.Interval = 2500
		c.ReceiverOffset = 60
		c.NoisePeriod = 0
	}, msg, 2)
	if repBad.BER < 0.10 {
		t.Fatalf("in-flight-window probing BER = %.3f, expected large", repBad.BER)
	}
}

func TestNTPNTPOverloadCollapses(t *testing.T) {
	msg := RandomMessage(400, 13)
	rep, _ := run(t, RunNTPNTP, func(c *Config) {
		c.Interval = 700 // below the per-iteration work: overrun
		c.NoisePeriod = 0
	}, msg, 3)
	if rep.BER < 0.2 {
		t.Fatalf("over-rate channel BER = %.3f, expected collapse", rep.BER)
	}
	if rep.CapacityKBps > 30 {
		t.Fatalf("over-rate capacity = %.1f KB/s, should be near zero", rep.CapacityKBps)
	}
}

func TestNTPNTPNoiseRaisesBER(t *testing.T) {
	msg := RandomMessage(1500, 14)
	clean, _ := run(t, RunNTPNTP, func(c *Config) {
		c.Interval = 2000
		c.NoisePeriod = 0
	}, msg, 4)
	noisy, _ := run(t, RunNTPNTP, func(c *Config) {
		c.Interval = 2000
		c.NoisePeriod = 100_000 // heavy noise
	}, msg, 4)
	if noisy.Errors <= clean.Errors {
		t.Fatalf("noise did not raise errors: clean=%d noisy=%d", clean.Errors, noisy.Errors)
	}
	if noisy.BER > 0.2 {
		t.Fatalf("noise BER = %.3f; channel should degrade gracefully, not collapse", noisy.BER)
	}
}

func TestPrimeProbeNoiselessWorks(t *testing.T) {
	msg := RandomMessage(600, 15)
	rep, _ := run(t, RunPrimeProbe, func(c *Config) {
		c.Interval = 9000
		c.NoisePeriod = 0
	}, msg, 5)
	if rep.BER > 0.01 {
		t.Fatalf("Prime+Probe BER = %.3f at a comfortable interval", rep.BER)
	}
}

func TestNTPNTPBeatsPrimeProbe(t *testing.T) {
	// The Table II headline at reduced scale: peak capacities across a
	// small sweep, NTP+NTP should win by well over 2x.
	cfgp := platform.Skylake()
	base := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	ntp := Sweep(cfgp, RunNTPNTP, base, []int64{1300, 1600, 2000}, 1200, 21, nil, nil)
	pp := Sweep(cfgp, RunPrimeProbe, base, []int64{6500, 8000, 10000}, 1200, 21, nil, nil)
	np, pp2 := ntp.Peak(), pp.Peak()
	if np.CapacityKBps < 2*pp2.CapacityKBps {
		t.Fatalf("NTP+NTP peak %.1f KB/s vs Prime+Probe %.1f KB/s; want >2x",
			np.CapacityKBps, pp2.CapacityKBps)
	}
}

func TestSweepShape(t *testing.T) {
	cfgp := platform.Skylake()
	base := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	res := Sweep(cfgp, RunNTPNTP, base, []int64{900, 1300, 2600}, 800, 22, nil, nil)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Beyond the knee (900) capacity collapses; at the knee (1300) it
	// peaks; at low rate (2600) it is positive but lower than the peak.
	knee, low, over := res.Points[1], res.Points[2], res.Points[0]
	if knee.CapacityKBps <= low.CapacityKBps {
		t.Fatalf("knee capacity %.1f <= low-rate capacity %.1f", knee.CapacityKBps, low.CapacityKBps)
	}
	if over.CapacityKBps > low.CapacityKBps {
		t.Fatalf("over-rate capacity %.1f should collapse below %.1f", over.CapacityKBps, low.CapacityKBps)
	}
	if res.Peak().Interval != 1300 {
		t.Fatalf("peak at interval %d, want 1300", res.Peak().Interval)
	}
}

func TestMessageCodecs(t *testing.T) {
	data := []byte("Leaky Way!")
	bits := BytesToBits(data)
	if len(bits) != len(data)*8 {
		t.Fatalf("bit length %d", len(bits))
	}
	back := BitsToBytes(bits)
	if string(back) != string(data) {
		t.Fatalf("round trip = %q", back)
	}
	enc := EncodeRepetition(bits, 3)
	if len(enc) != 3*len(bits) {
		t.Fatalf("encoded length %d", len(enc))
	}
	// Flip every 5th bit; majority vote must still recover everything.
	for i := 0; i < len(enc); i += 5 {
		enc[i] = !enc[i]
	}
	dec := DecodeRepetition(enc, 3)
	for i := range bits {
		if dec[i] != bits[i] {
			t.Fatalf("repetition decode failed at bit %d", i)
		}
	}
}

func TestRandomMessageDeterministic(t *testing.T) {
	a := RandomMessage(100, 9)
	b := RandomMessage(100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomMessage not deterministic")
		}
	}
	ones := 0
	for _, v := range a {
		if v {
			ones++
		}
	}
	if ones < 30 || ones > 70 {
		t.Fatalf("message heavily biased: %d ones", ones)
	}
}

func TestSetupValidation(t *testing.T) {
	m := sim.MustNewMachine(platform.Skylake(), 1<<28, 1)
	if _, err := Setup(m, 0); err == nil {
		t.Fatal("sets=0 accepted")
	}
	ep, err := Setup(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.DS) != 2 || len(ep.DR) != 2 || len(ep.Filler) != 2 || len(ep.NoiseLines) != 2*24 {
		t.Fatalf("endpoint shapes wrong: %+v", ep)
	}
	// ds, dr, the filler and the set's noise lines must be congruent per
	// set.
	geo := m.H.Geometry()
	for s := 0; s < 2; s++ {
		dl := ep.SenderAS.MustTranslate(ep.DS[s]).Line()
		rl := ep.ReceiverAS.MustTranslate(ep.DR[s]).Line()
		if !geo.Congruent(dl, rl) {
			t.Fatalf("set %d: ds and dr not congruent", s)
		}
		if len(ep.Filler[s]) != 16 {
			t.Fatalf("set %d: %d filler lines, want 16", s, len(ep.Filler[s]))
		}
		for _, va := range ep.Filler[s] {
			if !geo.Congruent(ep.ReceiverAS.MustTranslate(va).Line(), rl) {
				t.Fatalf("set %d: filler line not congruent with dr", s)
			}
		}
		for _, va := range ep.NoiseLines[24*s : 24*(s+1)] {
			if !geo.Congruent(ep.NoiseAS.MustTranslate(va).Line(), rl) {
				t.Fatalf("set %d: noise line not congruent with dr", s)
			}
		}
	}
	// The two sets must be distinct.
	r0 := ep.ReceiverAS.MustTranslate(ep.DR[0]).Line()
	r1 := ep.ReceiverAS.MustTranslate(ep.DR[1]).Line()
	if geo.Congruent(r0, r1) {
		t.Fatal("the two target sets collide")
	}
}

func TestReportRateMath(t *testing.T) {
	// The Table II unit conversions: 1 bit per interval at f GHz gives
	// f*1e9/interval bits/s = that/8192 KB/s.
	r := Report{Channel: "x", Platform: "y", Bits: 100, Errors: 0, Interval: 1700}
	finishReport(&r, 3.4, 1)
	wantRaw := 3.4e9 / 1700 / 8 / 1024
	if diff := r.RawRateKBps - wantRaw; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("raw rate %.6f, want %.6f", r.RawRateKBps, wantRaw)
	}
	if r.CapacityKBps != r.RawRateKBps {
		t.Fatalf("error-free capacity %.3f != raw %.3f", r.CapacityKBps, r.RawRateKBps)
	}
	// Two bits per interval doubles it; errors shrink capacity.
	r2 := Report{Bits: 100, Errors: 10, Interval: 1700}
	finishReport(&r2, 3.4, 2)
	if r2.RawRateKBps < 1.99*wantRaw || r2.RawRateKBps > 2.01*wantRaw {
		t.Fatalf("2-bit raw rate %.3f, want ≈%.3f", r2.RawRateKBps, 2*wantRaw)
	}
	if r2.BER != 0.1 {
		t.Fatalf("BER %.3f, want 0.1", r2.BER)
	}
	if r2.CapacityKBps >= r2.RawRateKBps {
		t.Fatal("errors must shrink capacity below the raw rate")
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}
