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
// scheduler: two agents in lockstep (equal op costs), forcing a coroutine
// switch between the agents at almost every operation.
func BenchmarkMachineTwoAgentHandoff(b *testing.B) {
	m := newTestMachine(1)
	mk := func(name string) {
		m.Spawn(name, 0, nil, func(c *Core) {
			for i := 0; i < b.N; i++ {
				c.Spin(10)
			}
		})
	}
	mk("a")
	mk("b")
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}
