package experiments

import (
	"fmt"

	"leakyway/internal/channel"
	"leakyway/internal/hier"
	"leakyway/internal/sim"
)

// fig6, fig7 and fig8 are declarative scenarios now — see builtin.go for
// their Spec literals and scenario_run.go for the interpreters. Table II
// stays hand-coded: its paper-comparison column renders reference numbers
// that are data, not scenario structure.

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Table II — maximum channel capacities",
		Paper: "NTP+NTP 302 (SKL) / 275 (KBL) KB/s; Prime+Probe 86 / 81 KB/s",
		Run:   runTable2,
	})
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func runTable2(ctx *Context) (*Result, error) {
	res := &Result{}
	bits := ctx.Trials(2000)
	paper := map[string][2]float64{
		"skylake":  {302, 86},
		"kabylake": {275, 81},
	}
	// The sweeps render nothing, so the per-platform rows can be computed
	// concurrently and assembled into one table afterwards.
	type peaks struct{ ntp, pp float64 }
	byPlatform := make([]peaks, len(ctx.Platforms))
	err := ctx.EachPlatform(func(sub *Context, cfg hier.Config) error {
		base := channel.DefaultConfig(cfg.Name, cfg.FreqGHz)
		ntp := channel.Sweep(cfg, channel.RunNTPNTP, base, []int64{1200, 1300, 1500, 1800, 2000}, bits, sub.SeedFor("ntpntp"), sub.Parallel, nil).Peak()
		pp := channel.Sweep(cfg, channel.RunPrimeProbe, base, []int64{6500, 7000, 8000, 9000}, bits, sub.SeedFor("primeprobe"), sub.Parallel, nil).Peak()
		for i := range ctx.Platforms {
			if ctx.Platforms[i].Name == cfg.Name {
				byPlatform[i] = peaks{ntp.CapacityKBps, pp.CapacityKBps}
			}
		}
		res.Metric(shortName(cfg)+"/ntpntp_peak_kbps", ntp.CapacityKBps)
		res.Metric(shortName(cfg)+"/primeprobe_peak_kbps", pp.CapacityKBps)
		return nil
	})
	if err != nil {
		return res, err
	}
	rows := [][]string{}
	for i, cfg := range ctx.Platforms {
		p := paper[shortName(cfg)]
		rows = append(rows,
			[]string{cfg.Name, "NTP+NTP", fmt.Sprintf("%.0f KB/s", byPlatform[i].ntp), fmt.Sprintf("%.0f KB/s", p[0])},
			[]string{cfg.Name, "Prime+Probe", fmt.Sprintf("%.0f KB/s", byPlatform[i].pp), fmt.Sprintf("%.0f KB/s", p[1])},
		)
	}
	renderTable(ctx, []string{"platform", "channel", "measured capacity", "paper"}, rows)
	return res, nil
}

// quietPlatform strips latency jitter (useful for deterministic traces).
func quietPlatform(cfg hier.Config) hier.Config {
	cfg.Lat.L1Jit, cfg.Lat.L2Jit, cfg.Lat.LLCJit, cfg.Lat.MemJit = 0, 0, 0, 0
	cfg.Lat.FlushJit, cfg.Lat.TimerJit = 0, 0
	return cfg
}

// platformVariant is one row of a variant table: the first platform
// modified by mod, and the seed of its machine and message.
type platformVariant struct {
	name, key string
	mod       func(p *hier.Config)
	seed      int64
}

// variantTable runs NTP+NTP at 1500 cycles/bit without noise on one machine
// per variant, sharded across free workers. It renders a BER/capacity
// table whose first column is headed what, and records <key>_ber and
// <key>_capacity per variant.
func variantTable(ctx *Context, res *Result, what string, variants []platformVariant) {
	bits := ctx.Trials(1500)
	reps := make([]channel.Report, len(variants))
	ctx.Parallel(len(variants), func(i int, src sim.MachineSource) {
		v := variants[i]
		p := ctx.Platforms[0]
		v.mod(&p)
		cfg := channel.DefaultConfig(p.Name, p.FreqGHz)
		cfg.NoisePeriod = 0
		cfg.Interval = 1500
		reps[i], _ = channel.RunNTPNTP(src.NewMachine(p, 1<<30, v.seed), cfg, channel.RandomMessage(bits, v.seed))
	})
	rows := [][]string{}
	for i, v := range variants {
		rep := reps[i]
		rows = append(rows, []string{v.name, fmt.Sprintf("%.2f%%", 100*rep.BER), fmt.Sprintf("%.1f KB/s", rep.CapacityKBps)})
		res.Metric(v.key+"_ber", rep.BER)
		res.Metric(v.key+"_capacity", rep.CapacityKBps)
	}
	renderTable(ctx, []string{what, "BER", "capacity"}, rows)
}
