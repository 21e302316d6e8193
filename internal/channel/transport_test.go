package channel

import (
	"strings"
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

func transportConfig() TransportConfig {
	p := platform.Skylake()
	return DefaultTransportConfig(p.Name, p.FreqGHz)
}

func TestARQCleanChannelDelivers(t *testing.T) {
	p := platform.Skylake()
	tcfg := transportConfig()
	tcfg.Channel.NoisePeriod = 0
	payload := RandomMessage(160, 21)
	m := sim.MustNewMachine(p, 1<<30, 11)
	rep, got, err := RunARQ(m, tcfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Fatalf("clean channel did not deliver: %v", rep)
	}
	if rep.ResidualErrors != 0 {
		t.Fatalf("%d residual errors on a clean channel", rep.ResidualErrors)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if rep.Frames != 5 || rep.Attempts < rep.Frames {
		t.Fatalf("frames=%d attempts=%d", rep.Frames, rep.Attempts)
	}
	if rep.GoodputKBps <= 0 {
		t.Fatalf("goodput %.3f", rep.GoodputKBps)
	}
}

func TestARQSurvivesNoise(t *testing.T) {
	p := platform.Skylake()
	tcfg := transportConfig()
	tcfg.Channel.NoisePeriod = 60_000 // much hotter than the default 450k
	payload := RandomMessage(128, 22)
	m := sim.MustNewMachine(p, 1<<30, 12)
	rep, got, err := RunARQ(m, tcfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || rep.ResidualErrors != 0 {
		t.Fatalf("noisy delivery failed: %v", rep)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestARQValidation(t *testing.T) {
	p := platform.Skylake()
	m := sim.MustNewMachine(p, 1<<30, 13)
	tcfg := transportConfig()
	tcfg.Channel.Interval = 1000 // below the re-prime floor
	if _, _, err := RunARQ(m, tcfg, RandomMessage(32, 1)); err == nil ||
		!strings.Contains(err.Error(), "re-prime minimum") {
		t.Fatalf("interval floor not enforced: %v", err)
	}
	tcfg = transportConfig()
	if _, _, err := RunARQ(m, tcfg, nil); err == nil ||
		!strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("empty payload not rejected: %v", err)
	}
	tcfg = transportConfig()
	tcfg.FERWindow = 0
	if _, _, err := RunARQ(m, tcfg, RandomMessage(32, 1)); err == nil {
		t.Fatal("FERWindow=0 not rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	p := platform.Skylake()
	good := DefaultConfig(p.Name, p.FreqGHz)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := good
	bad.Interval = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad = good
	bad.ReceiverOffset = good.Interval
	if err := bad.Validate(); err == nil {
		t.Fatal("receiver offset at interval accepted")
	}
	bad = good
	bad.Interval = MinSelfSyncInterval - 1
	bad.ReceiverOffset = 0
	if err := bad.ValidateSelfSync(); err == nil {
		t.Fatal("self-sync interval below floor accepted")
	}
	if err := bad.Validate(); err != nil {
		t.Fatalf("plain channel should accept short intervals: %v", err)
	}
}

func TestRunEntryPointsRejectBadConfig(t *testing.T) {
	p := platform.Skylake()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not reject invalid input", name)
			}
		}()
		fn()
	}
	cfg := DefaultConfig(p.Name, p.FreqGHz)
	cfg.Interval = -5
	expectPanic("RunNTPNTP", func() {
		RunNTPNTP(sim.MustNewMachine(p, 1<<30, 1), cfg, RandomMessage(8, 1))
	})
	expectPanic("RunNTPNTP empty msg", func() {
		RunNTPNTP(sim.MustNewMachine(p, 1<<30, 1), DefaultConfig(p.Name, p.FreqGHz), nil)
	})
	expectPanic("RunPrimeProbe", func() {
		RunPrimeProbe(sim.MustNewMachine(p, 1<<30, 1), cfg, RandomMessage(8, 1))
	})
	short := DefaultConfig(p.Name, p.FreqGHz)
	short.Interval = 1500 // legal for the epoch channel, too short for self-sync
	expectPanic("RunNTPNTPSelfSync", func() {
		RunNTPNTPSelfSync(sim.MustNewMachine(p, 1<<30, 1), short, RandomMessage(8, 1))
	})
	expectPanic("Sweep", func() {
		Sweep(p, RunNTPNTP, DefaultConfig(p.Name, p.FreqGHz), []int64{2000}, 0, 1, nil, nil)
	})
}
