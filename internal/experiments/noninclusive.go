package experiments

import "leakyway/internal/hier"

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
	variantTable(ctx, res, "LLC organization", []platformVariant{
		{"inclusive LLC (client parts)", "inclusive", func(p *hier.Config) {}, ctx.Seed},
		{"non-inclusive LLC, no directory model", "noninclusive", func(p *hier.Config) {
			p.NonInclusive = true
		}, ctx.Seed},
		{"non-inclusive + directory, NTA tracked like loads", "dir_plain", func(p *hier.Config) {
			p.NonInclusive = true
			p.DirectoryWays = 12
		}, ctx.Seed},
		{"non-inclusive + directory, NTA entries evict first (conjecture)", "dir_ntp", func(p *hier.Config) {
			p.NonInclusive = true
			p.DirectoryWays = 12
			p.DirectoryNTAIsVictim = true
		}, ctx.Seed},
	})
	ctx.Printf("without an inclusive LLC the receiver's probe always hits its own L1 and the channel dies;\n")
	ctx.Printf("under the paper's Section VI-B conjecture the directory recreates the one-way competition\n")
	ctx.Printf("and the channel returns at full speed — the attack surface the paper left as future work\n")
	return res, nil
}
