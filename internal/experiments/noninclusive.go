package experiments

import (
	"fmt"

	"leakyway/internal/channel"
	"leakyway/internal/hier"
	"leakyway/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "noninclusive",
		Title: "Extension — non-inclusive LLCs and the directory NTP+NTP conjecture (Section VI-B)",
		Paper: "on server parts PREFETCHNTA fills only the L1 and the directory; the paper conjectures a directory version of the channel and leaves it as future work",
		Run:   runNonInclusive,
	})
}

func runNonInclusive(ctx *Context) (*Result, error) {
	res := &Result{}
	bits := ctx.Trials(1500)
	rows := [][]string{}
	type variant struct {
		name, key string
		mod       func(p *hier.Config)
	}
	variants := []variant{
		{"inclusive LLC (client parts)", "inclusive", func(p *hier.Config) {}},
		{"non-inclusive LLC, no directory model", "noninclusive", func(p *hier.Config) {
			p.NonInclusive = true
		}},
		{"non-inclusive + directory, NTA tracked like loads", "dir_plain", func(p *hier.Config) {
			p.NonInclusive = true
			p.DirectoryWays = 12
		}},
		{"non-inclusive + directory, NTA entries evict first (conjecture)", "dir_ntp", func(p *hier.Config) {
			p.NonInclusive = true
			p.DirectoryWays = 12
			p.DirectoryNTAIsVictim = true
		}},
	}
	// Every variant runs on its own machine, so the four shard across
	// free workers.
	reps := make([]channel.Report, len(variants))
	ctx.Parallel(len(variants), func(i int, src sim.MachineSource) {
		p := ctx.Platforms[0]
		variants[i].mod(&p)
		cfg := channel.DefaultConfig(p.Name, p.FreqGHz)
		cfg.NoisePeriod = 0
		cfg.Interval = 1500
		m := src.NewMachine(p, 1<<30, ctx.Seed)
		reps[i], _ = channel.RunNTPNTP(m, cfg, channel.RandomMessage(bits, ctx.Seed))
	})
	for i, v := range variants {
		rep := reps[i]
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.2f%%", 100*rep.BER),
			fmt.Sprintf("%.1f KB/s", rep.CapacityKBps),
		})
		res.Metric(v.key+"_capacity", rep.CapacityKBps)
		res.Metric(v.key+"_ber", rep.BER)
	}
	renderTable(ctx, []string{"LLC organization", "BER", "capacity"}, rows)
	ctx.Printf("without an inclusive LLC the receiver's probe always hits its own L1 and the channel dies;\n")
	ctx.Printf("under the paper's Section VI-B conjecture the directory recreates the one-way competition\n")
	ctx.Printf("and the channel returns at full speed — the attack surface the paper left as future work\n")
	return res, nil
}
