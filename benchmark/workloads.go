package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"leakyway/internal/channel"
	"leakyway/internal/experiments"
	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// suiteSeeds is how many derived seeds paper-full and channel-stream cycle
// through. Inputs repeat across rounds, so every repeat is a determinism
// check, and the default seed's outputs are all pinned.
const suiteSeeds = 4

// paper-full: one caller regenerates every table and figure at full scale
// (`leakyway run all -jobs 2`). The round's first suite is cold; the warm
// suites after it are timed.
func runPaperFull(rc *roundCtx) error {
	do := func(kind string, seed int64) {
		op := rc.tr.op()
		t0 := time.Now()
		digest, d, err := runSuite(op, seed)
		op.done(kind, t0, time.Now())
		if err != nil {
			rc.fail(suiteInput(seed), "%v", err)
			return
		}
		rc.ok(opRecord{Kind: kind, Input: suiteInput(seed), Seconds: d.Seconds(), Digest: digest})
	}
	do("cold", suiteSeed(rc.spec.Seed, 0))
	rc.setupDone()
	rc.measure(func() {
		rc.closedLoop(func(i int) {
			do("suite", suiteSeed(rc.spec.Seed, (i+1)%suiteSeeds))
		})
	})
	rc.rateFromOps("suite")
	return nil
}

func suiteSeed(seed int64, k int) int64 { return inputSeed(seed, "paper-full", "suite", k) }

func suiteInput(seed int64) string { return fmt.Sprintf("suite:%d", seed) }

// runSuite runs `leakyway run all -jobs 2` for one seed. It checks that
// every registered experiment produced metrics and returns the digest of
// the canonical metrics export (`leakyway -json`) and the RunAll time.
func runSuite(op *opTrace, seed int64) (string, time.Duration, error) {
	ctx := experiments.NewContext(io.Discard)
	ctx.Seed = seed
	ctx.Jobs = 2
	t0 := time.Now()
	results, err := experiments.RunAll(ctx)
	t1 := time.Now()
	op.span("experiments.RunAll", t0, t1)
	defer func() { op.span("bench.check", t1, time.Now()) }()
	if err != nil {
		return "", 0, err
	}
	for _, id := range experiments.IDs() {
		if r := results[id]; r == nil || len(r.Metrics) == 0 {
			return "", 0, fmt.Errorf("experiment %s produced no metrics", id)
		}
	}
	var buf bytes.Buffer
	if err := experiments.WriteMetricsJSON(&buf, results); err != nil {
		return "", 0, err
	}
	return sha256Hex(buf.Bytes()), t1.Sub(t0), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// channel-stream: one caller transmits a random message over NTP+NTP on a
// fresh Skylake machine. The machine is built outside the timed call, so
// only the steady-state access path (policy, cache, hier, sim handoffs) is
// measured; the engine, the arena and the service are bypassed.
func runChannelStream(rc *roundCtx) error {
	bits := rc.spec.Sizes.StreamBits
	do := func(kind string, seed int64) {
		op := rc.tr.op()
		t0 := time.Now()
		digest, d, err := transmit(op, seed, bits)
		op.done(kind, t0, time.Now())
		if err != nil {
			rc.fail(streamInput(seed, bits), "%v", err)
			return
		}
		rc.ok(opRecord{Kind: kind, Input: streamInput(seed, bits), Seconds: d.Seconds(), Digest: digest})
	}
	do("cold", streamSeed(rc.spec.Seed, 0))
	rc.setupDone()
	rc.measure(func() {
		rc.closedLoop(func(i int) {
			do("transmit", streamSeed(rc.spec.Seed, (i+1)%suiteSeeds))
		})
	})
	rc.rateFromOps("transmit")
	return nil
}

func streamSeed(seed int64, k int) int64 { return inputSeed(seed, "channel-stream", "message", k) }

func streamInput(seed int64, bits int) string { return fmt.Sprintf("stream:%d:%d", seed, bits) }

// streamMaxBER bounds the bit error rate of a transmission at interval
// 1500 with the default background noise; measured rates sit near 2%.
const streamMaxBER = 0.10

// streamConfig is fig8's NTP+NTP operating point on Skylake.
func streamConfig() (hier.Config, channel.Config) {
	plat := platform.Skylake()
	cfg := channel.DefaultConfig(plat.Name, plat.FreqGHz)
	cfg.Interval = 1500
	return plat, cfg
}

// transmit sends a random message of the given length on a fresh machine
// and returns the digest of its simulated statistics and the time spent in
// RunNTPNTP.
func transmit(op *opTrace, seed int64, bits int) (string, time.Duration, error) {
	plat, cfg := streamConfig()
	msg := channel.RandomMessage(bits, experiments.SplitSeed(seed, "message"))
	t0 := time.Now()
	m, err := sim.NewMachine(plat, 1<<30, seed)
	if err != nil {
		return "", 0, err
	}
	t1 := time.Now()
	rep, _ := channel.RunNTPNTP(m, cfg, msg)
	t2 := time.Now()
	op.span("sim.NewMachine", t0, t1)
	op.span("channel.RunNTPNTP", t1, t2)
	defer func() { op.span("bench.check", t2, time.Now()) }()
	if rep.Bits != bits || rep.BER > streamMaxBER {
		return "", 0, fmt.Errorf("transmitted %d of %d bits at BER %.4f (limit %.2f)", rep.Bits, bits, rep.BER, streamMaxBER)
	}
	return streamDigest(rep, m.H), t2.Sub(t1), nil
}

// streamDigest renders a transmission's exact simulated statistics: the
// error count and the cache event counters of the sender's and receiver's
// private caches and of the LLC. The simulator is deterministic, so these
// repeat exactly for the same input on any host.
func streamDigest(rep channel.Report, h *hier.Hierarchy) string {
	l1s, l1r := h.L1Stats(0), h.L1Stats(1)
	l2s, l2r := h.L2Stats(0), h.L2Stats(1)
	llc := h.LLCStats()
	return fmt.Sprintf("bits=%d errors=%d l1=%d/%d,%d/%d l2=%d/%d,%d/%d llc=%d/%d/%d",
		rep.Bits, rep.Errors,
		l1s.Hits, l1s.Misses, l1r.Hits, l1r.Misses,
		l2s.Hits, l2s.Misses, l2r.Hits, l2r.Misses,
		llc.Hits, llc.Misses, llc.Evictions)
}
