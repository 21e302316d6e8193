package sim

import (
	"testing"

	"leakyway/internal/mem"
)

// BenchmarkMachineTimedOp measures a timed load through the scheduler —
// the receiver-side primitive every channel sweep issues millions of times.
// With a single agent the batched scheduler never yields, so this is the
// pure per-op cost: translate, hierarchy lookup, timing model.
func BenchmarkMachineTimedOp(b *testing.B) {
	m := newTestMachine(1)
	var sink int64
	m.Spawn("bench", 0, nil, func(c *Core) {
		buf := c.Alloc(mem.PageSize)
		c.Load(buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += c.TimedLoad(buf)
		}
	})
	m.Run()
	if sink == 0 {
		b.Fatal("timed loads reported zero cycles")
	}
}

// BenchmarkMachineTwoAgentHandoff measures the worst case for the batched
// scheduler with two agents: in lockstep (equal op costs) they hand off at
// almost every operation. The host runs on Run's goroutine and the other
// agent is a coroutine, so each handoff is one coroutine switch.
func BenchmarkMachineTwoAgentHandoff(b *testing.B) {
	benchLockstep(b, "a", "b")
}

// BenchmarkMachineThreeAgentHandoff adds a second coroutine agent to the
// lockstep: every round hands off host -> b -> c -> host, and the b -> c
// handoff goes through the scheduling loop on the host's stack, two
// coroutine switches.
func BenchmarkMachineThreeAgentHandoff(b *testing.B) {
	benchLockstep(b, "a", "b", "c")
}

// benchLockstep runs one agent per name, each spinning b.N equal steps.
func benchLockstep(b *testing.B, names ...string) {
	m := newTestMachine(1)
	for _, name := range names {
		m.Spawn(name, 0, nil, func(c *Core) {
			for i := 0; i < b.N; i++ {
				c.Spin(10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}
