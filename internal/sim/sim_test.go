package sim

import (
	"runtime"
	"strings"
	"testing"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

func testConfig() hier.Config {
	lat := hier.DefaultLatency()
	return hier.Config{
		Name: "test", Cores: 2, FreqGHz: 1,
		L1Sets: 8, L1Ways: 4,
		L2Sets: 16, L2Ways: 4,
		LLCSlices: 1, LLCSetsPerSlice: 32, LLCWays: 8,
		Lat: lat,
	}
}

func newTestMachine(seed int64) *Machine {
	return MustNewMachine(testConfig(), 1<<24, seed)
}

func TestSingleAgentClock(t *testing.T) {
	m := newTestMachine(1)
	var first, second int64
	var lvl1, lvl2 hier.Level
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(mem.PageSize)
		r1 := c.Load(buf)
		lvl1 = r1.Level
		first = c.Now()
		r2 := c.Load(buf)
		lvl2 = r2.Level
		second = c.Now()
	})
	m.Run()
	if lvl1 != hier.LevelMem || lvl2 != hier.LevelL1 {
		t.Fatalf("levels = %v,%v; want DRAM then L1", lvl1, lvl2)
	}
	if first <= 0 || second <= first {
		t.Fatalf("clock not advancing: %d, %d", first, second)
	}
}

func TestInterleavingIsClockOrdered(t *testing.T) {
	m := newTestMachine(2)
	var order []string
	mk := func(name string, spins int64) func(*Core) {
		return func(c *Core) {
			for i := 0; i < 3; i++ {
				c.Spin(spins)
				order = append(order, name)
			}
		}
	}
	m.Spawn("fast", 0, nil, mk("fast", 10))
	m.Spawn("slow", 1, nil, mk("slow", 100))
	m.Run()
	// fast at t=10,20,30; slow at t=100,200,300 → all fast first.
	want := []string{"fast", "fast", "fast", "slow", "slow", "slow"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		m := newTestMachine(42)
		var trace []int64
		for id := 0; id < 2; id++ {
			id := id
			m.Spawn("agent", id, nil, func(c *Core) {
				buf := c.Alloc(4 * mem.PageSize)
				for i := 0; i < 20; i++ {
					lat := c.TimedLoad(buf + mem.VAddr((i*7%64)*64))
					trace = append(trace, int64(id)*1e9+c.Now()+lat)
				}
			})
		}
		m.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWaitUntil(t *testing.T) {
	m := newTestMachine(3)
	m.SyncSlack = 0
	m.Spawn("a", 0, nil, func(c *Core) {
		c.WaitUntil(5000)
		if c.Now() != 5000 {
			t.Errorf("Now = %d after WaitUntil(5000)", c.Now())
		}
		c.WaitUntil(1000) // already past: no-op
		if c.Now() != 5000 {
			t.Errorf("WaitUntil went backwards: %d", c.Now())
		}
	})
	m.Run()
}

func TestCrossCoreVisibility(t *testing.T) {
	m := newTestMachine(4)
	shared := m.NewSpace()
	base, err := shared.Alloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var senderLevel, receiverLevel hier.Level
	m.Spawn("sender", 0, shared, func(c *Core) {
		senderLevel = c.Load(base).Level
	})
	m.Spawn("receiver", 1, shared, func(c *Core) {
		c.WaitUntil(10000)
		receiverLevel = c.Load(base).Level
	})
	m.Run()
	if senderLevel != hier.LevelMem {
		t.Fatalf("sender level = %v, want DRAM", senderLevel)
	}
	if receiverLevel != hier.LevelLLC {
		t.Fatalf("receiver level = %v, want LLC (cross-core shared hit)", receiverLevel)
	}
}

func TestDaemonsKilledAfterWork(t *testing.T) {
	m := newTestMachine(5)
	iterations := 0
	m.SpawnDaemon("victim", 1, nil, func(c *Core) {
		buf := c.Alloc(mem.PageSize)
		for {
			c.Load(buf)
			c.Spin(100)
			iterations++
		}
	})
	m.Spawn("attacker", 0, nil, func(c *Core) {
		c.Spin(5000)
	})
	m.Run() // must terminate
	if iterations == 0 {
		t.Fatal("daemon never ran")
	}
}

func TestAgentPanicPropagates(t *testing.T) {
	m := newTestMachine(6)
	m.Spawn("boom", 0, nil, func(c *Core) {
		c.Spin(10)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("machine swallowed the agent panic")
		}
	}()
	m.Run()
}

// runRecovered runs m and returns the value Run panicked with, if any.
func runRecovered(m *Machine) (r any) {
	defer func() { r = recover() }()
	m.Run()
	return nil
}

// runOnGoroutine runs m on a fresh goroutine and returns the value Run
// panicked with, if any, and whether that goroutine ended in
// runtime.Goexit instead.
func runOnGoroutine(m *Machine) (r any, goexited bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		goexited = true
		r = runRecovered(m)
		goexited = false
	}()
	<-done
	return r, goexited
}

// TestRunReleasesAgentCoroutines checks that every agent coroutine is gone
// once Run returns, panics or is left by runtime.Goexit, whichever way the
// agents ended — the host (first non-daemon agent, run on Run's goroutine)
// as well as the coroutines.
func TestRunReleasesAgentCoroutines(t *testing.T) {
	looper := func(c *Core) {
		for {
			c.Spin(50)
		}
	}
	cases := []struct {
		name  string
		spawn func(m *Machine, unwound *bool)
		agent string // agent named by the expected AgentError; "" = no panic
		// goexit: Run's goroutine must end in runtime.Goexit; unwound: the
		// host's deferred func must have run.
		goexit, unwound bool
	}{
		{"daemon-still-looping", func(m *Machine, _ *bool) {
			m.SpawnDaemon("noise", 1, nil, looper)
			m.Spawn("work", 0, nil, func(c *Core) { c.Spin(5000) })
		}, "", false, false},
		{"agent-panic", func(m *Machine, _ *bool) {
			m.SpawnDaemon("noise", 1, nil, looper)
			m.Spawn("boom", 0, nil, func(c *Core) {
				c.Spin(10)
				panic("kaboom")
			})
		}, "boom", false, false},
		{"daemon-teardown-panic", func(m *Machine, _ *bool) {
			m.SpawnDaemon("rotten", 1, nil, func(c *Core) {
				defer func() { panic("teardown bomb") }()
				looper(c)
			})
			m.Spawn("work", 0, nil, func(c *Core) { c.Spin(500) })
		}, "rotten", false, false},
		{"host-panic-daemon-parked", func(m *Machine, _ *bool) {
			m.Spawn("boom", 0, nil, func(c *Core) {
				for i := 0; i < 20; i++ {
					c.Spin(30)
				}
				panic("kaboom")
			})
			m.SpawnDaemon("noise", 1, nil, looper)
		}, "boom", false, false},
		{"coroutine-panic-host-parked", func(m *Machine, unwound *bool) {
			m.Spawn("host", 0, nil, func(c *Core) {
				defer func() { *unwound = true }()
				looper(c)
			})
			m.Spawn("boom", 1, nil, func(c *Core) {
				c.Spin(1000)
				panic("kaboom")
			})
		}, "boom", false, true},
		{"host-goexit", func(m *Machine, unwound *bool) {
			m.Spawn("quitter", 0, nil, func(c *Core) {
				defer func() { *unwound = true }()
				c.Spin(500)
				runtime.Goexit()
			})
			m.SpawnDaemon("noise", 1, nil, looper)
		}, "", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := newTestMachine(8)
			unwound := false
			tc.spawn(m, &unwound)
			r, goexited := runOnGoroutine(m)
			if goexited != tc.goexit {
				t.Fatalf("Run's goroutine ended in Goexit: %v, want %v", goexited, tc.goexit)
			}
			if tc.agent == "" && r != nil {
				t.Fatalf("Run panicked: %v", r)
			}
			if ae, ok := r.(*AgentError); tc.agent != "" && (!ok || ae.Agent != tc.agent || len(ae.Stack) == 0) {
				t.Fatalf("Run panicked with %T %v; want *AgentError with a stack for %q", r, r, tc.agent)
			}
			if tc.unwound && !unwound {
				t.Fatal("the host's deferred func did not run")
			}
			settleGoroutines(t, before)
		})
	}
}

// TestSpawnDuringRunPanics checks that spawning from inside a running
// agent, the host or a coroutine, surfaces as that agent's *AgentError and
// still tears every coroutine down.
func TestSpawnDuringRunPanics(t *testing.T) {
	for _, spawner := range []string{"host", "guest"} {
		t.Run(spawner, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := newTestMachine(10)
			body := func(name string) func(*Core) {
				return func(c *Core) {
					c.Spin(100)
					if name == spawner {
						m.SpawnDaemon("late", 1, nil, func(*Core) {})
					}
					c.Spin(100)
				}
			}
			m.Spawn("host", 0, nil, body("host"))
			m.Spawn("guest", 1, nil, body("guest"))
			m.SpawnDaemon("noise", 1, nil, func(c *Core) {
				for {
					c.Spin(50)
				}
			})
			ae, ok := runRecovered(m).(*AgentError)
			if !ok || ae.Agent != spawner {
				t.Fatalf("Run did not surface %q's Spawn as its AgentError", spawner)
			}
			if msg, _ := ae.Value.(string); !strings.Contains(msg, "during Run") {
				t.Fatalf("AgentError value = %v", ae.Value)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestSingleAgentRunStartsNoGoroutine checks that a lone agent runs on
// Run's own goroutine: no coroutine is started for it.
func TestSingleAgentRunStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	during := -1
	m := newTestMachine(11)
	m.Spawn("solo", 0, nil, func(c *Core) {
		c.Load(c.Alloc(mem.PageSize))
		during = runtime.NumGoroutine()
	})
	m.Run()
	if during != before {
		t.Fatalf("%d goroutines during Run, %d before", during, before)
	}
}

// TestUnstartedAgentNeverRuns checks that an agent torn down before its
// first turn is never entered, whether it is a coroutine (stopped before
// its body starts) or the host: here the first-spawned agent panics at
// cycle 0, before the agent spawned after it is picked.
func TestUnstartedAgentNeverRuns(t *testing.T) {
	for _, lateIsHost := range []bool{false, true} {
		before := runtime.NumGoroutine()
		m := newTestMachine(9)
		boom := func(c *Core) { panic("before any op") }
		ran := false
		late := func(c *Core) {
			ran = true
			for {
				c.Spin(50)
			}
		}
		if lateIsHost {
			m.SpawnDaemon("early", 0, nil, boom)
			m.Spawn("late", 1, nil, late)
		} else {
			m.Spawn("early", 0, nil, boom)
			m.SpawnDaemon("late", 1, nil, late)
		}
		if ae, ok := runRecovered(m).(*AgentError); !ok || ae.Agent != "early" {
			t.Fatalf("late is host %v: Run did not surface the first agent's panic", lateIsHost)
		}
		if ran {
			t.Fatalf("late is host %v: the late agent's body ran although it never got a turn", lateIsHost)
		}
		settleGoroutines(t, before)
	}
}

func TestTimedOpsIncludeOverhead(t *testing.T) {
	cfg := testConfig()
	cfg.Lat.L1Jit, cfg.Lat.TimerJit = 0, 0
	cfg.Lat.MemJit, cfg.Lat.LLCJit, cfg.Lat.L2Jit = 0, 0, 0
	m := MustNewMachine(cfg, 1<<24, 7)
	var warm int64
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(mem.PageSize)
		c.Load(buf)
		warm = c.TimedLoad(buf)
	})
	m.Run()
	want := cfg.Lat.L1Hit + cfg.Lat.TimerOverhead
	if warm != want {
		t.Fatalf("timed L1 load = %d, want %d", warm, want)
	}
}

func TestSpawnBadCore(t *testing.T) {
	m := newTestMachine(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range core")
		}
	}()
	m.Spawn("bad", 99, nil, func(*Core) {})
}

func TestFenceAndFlush(t *testing.T) {
	m := newTestMachine(9)
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(mem.PageSize)
		c.Load(buf)
		c.Fence()
		res := c.Flush(buf)
		if res.Latency <= 0 {
			t.Error("flush latency not positive")
		}
		if got := c.Load(buf); got.Level != hier.LevelMem {
			t.Errorf("post-flush load level = %v, want DRAM", got.Level)
		}
	})
	m.Run()
}

func TestKernelSpaceLazyAndShared(t *testing.T) {
	m := newTestMachine(21)
	if m.Kernel != nil {
		t.Fatal("kernel space should not exist before first use")
	}
	k1 := m.KernelSpace()
	k2 := m.KernelSpace()
	if k1 != k2 {
		t.Fatal("KernelSpace must return the same space")
	}
	if m.Kernel == nil {
		t.Fatal("kernel space not retained")
	}
}

func TestTimedPrefetchProbeDepthOrdering(t *testing.T) {
	m := newTestMachine(22)
	kernel := m.KernelSpace()
	base := mem.VAddr(0x6000_0000_0000)
	if err := kernel.AllocAt(base, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	m.Spawn("prober", 0, nil, func(c *Core) {
		deep := c.TimedPrefetchProbe(base)                       // fully mapped
		mid := c.TimedPrefetchProbe(base + 8*mem.PageSize)       // same 2M region
		far := c.TimedPrefetchProbe(mem.VAddr(0x1111_0000_0000)) // unmapped region
		if !(deep > mid && mid > far) {
			t.Errorf("probe times not ordered by translation depth: %d %d %d", deep, mid, far)
		}
	})
	m.Run()
}

func TestAgentNamesSorted(t *testing.T) {
	m := newTestMachine(23)
	m.Spawn("zeta", 0, nil, func(c *Core) { c.Spin(1) })
	m.Spawn("alpha", 1, nil, func(c *Core) { c.Spin(1) })
	names := m.AgentNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
	m.Run()
}
