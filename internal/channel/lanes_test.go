package channel

import (
	"testing"

	"leakyway/internal/platform"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
)

func TestLanesNoiselessIsPerfect(t *testing.T) {
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	cfg.Interval = 3200
	cfg.NoisePeriod = 0
	msg := RandomMessage(600, 41)
	m := sim.MustNewMachine(cfgp, 1<<30, 4)
	rep, recv := RunNTPNTPLanes(m, cfg, 4, msg)
	if rep.Errors != 0 {
		t.Fatalf("4-lane channel had %d/%d errors", rep.Errors, rep.Bits)
	}
	for i := range msg {
		if recv[i] != msg[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	// Raw rate must reflect 4 bits per interval.
	single := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	single.Interval = 3200
	single.NoisePeriod = 0
	m2 := sim.MustNewMachine(cfgp, 1<<30, 4)
	rep1, _ := RunNTPNTPLanes(m2, single, 1, msg)
	if rep.RawRateKBps < 3.9*rep1.RawRateKBps {
		t.Fatalf("4-lane raw rate %.1f not ≈4x single-lane %.1f", rep.RawRateKBps, rep1.RawRateKBps)
	}
}

func TestLanesDefaultsToOne(t *testing.T) {
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	cfg.Interval = 2000
	cfg.NoisePeriod = 0
	msg := RandomMessage(100, 42)
	m := sim.MustNewMachine(cfgp, 1<<30, 5)
	rep, _ := RunNTPNTPLanes(m, cfg, 0, msg)
	if rep.Errors != 0 {
		t.Fatalf("lanes=0 fallback had %d errors", rep.Errors)
	}
	if rep.Channel != "NTP+NTP x1" {
		t.Fatalf("channel name %q", rep.Channel)
	}
}

func TestLanesOverloadCollapses(t *testing.T) {
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	cfg.Interval = 1500 // far too short for 8 lanes of probing
	cfg.NoisePeriod = 0
	msg := RandomMessage(800, 43)
	m := sim.MustNewMachine(cfgp, 1<<30, 6)
	rep, _ := RunNTPNTPLanes(m, cfg, 8, msg)
	if rep.BER < 0.1 {
		t.Fatalf("8 lanes at 1500 cycles should overload: BER %.2f%%", 100*rep.BER)
	}
}

// One lane is the paper's two-set pipeline: RunNTPNTPLanes and RunNTPNTP
// run the same schedule, so identically seeded machines decode the same
// bits.
func TestOneLaneMatchesTwoSetNTPNTP(t *testing.T) {
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	cfg.Interval = 1100 // tight enough to leave errors to compare
	cfg.NoisePeriod = 40_000
	cfg.Sets = 2
	msg := RandomMessage(800, 44)
	repL, recvL := RunNTPNTPLanes(sim.MustNewMachine(cfgp, 1<<30, 7), cfg, 1, msg)
	repN, recvN := RunNTPNTP(sim.MustNewMachine(cfgp, 1<<30, 7), cfg, msg)
	if repL.Errors != repN.Errors {
		t.Fatalf("one lane: %d errors, two-set NTP+NTP: %d", repL.Errors, repN.Errors)
	}
	if repN.Errors == 0 {
		t.Fatal("no errors at this interval: the comparison proves nothing")
	}
	for i := range msg {
		if recvL[i] != recvN[i] {
			t.Fatalf("bit %d: one lane decoded %v, two-set NTP+NTP %v", i, recvL[i], recvN[i])
		}
	}
}

// A traced lanes run emits the same per-bit events as every other NTP+NTP
// run, so the diagnostics report sees each bit and each error.
func TestLanesEmitBitEvents(t *testing.T) {
	cfgp := platform.Skylake()
	cfg := DefaultConfig(cfgp.Name, cfgp.FreqGHz)
	cfg.Interval = 1500
	cfg.NoisePeriod = 40_000
	msg := RandomMessage(601, 45) // not a multiple of the lane count
	m := sim.MustNewMachine(cfgp, 1<<30, 8)
	tr := trace.New("lanes", trace.PkgChannel)
	m.SetTracer(tr)
	rep, _ := RunNTPNTPLanes(m, cfg, 4, msg)
	diags := trace.Diagnose([]*trace.Buffer{tr.Buffer()})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnosed lanes, want 1", len(diags))
	}
	d := diags[0]
	if d.TxBits != len(msg) || d.RxBits != len(msg) {
		t.Fatalf("tx-bit %d, rx-bit %d events, want %d each", d.TxBits, d.RxBits, len(msg))
	}
	if len(d.Errors) != rep.Errors {
		t.Fatalf("diagnostics saw %d errors, report counts %d", len(d.Errors), rep.Errors)
	}
	if rep.Errors == 0 {
		t.Fatal("no errors at this interval: the error count check proves nothing")
	}
}
