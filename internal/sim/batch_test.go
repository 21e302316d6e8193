package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leakyway/internal/hier"
	"leakyway/internal/mem"
)

// batchTestConfig enables the hardware prefetchers so the equivalence
// trials cover the stream-table state the hierarchy reset must rewind.
func batchTestConfig() hier.Config {
	cfg := testConfig()
	cfg.HWPrefetch = hier.HWPrefetchConfig{AdjacentLine: true, Stream: true}
	return cfg
}

// equivalenceTrial is one Monte-Carlo trial with enough moving parts to
// expose any divergence between fresh and recycled machines: two
// interacting agents with timed loads, non-temporal prefetches, flushes and
// fences; staged faults (preemption, timer spikes, clock drift); the
// hardware prefetchers; and a second machine per trial so the
// hierarchy-recycling path runs mid-trial. The returned fingerprint is the
// exact sequence of observed latencies and clock checkpoints — any
// scheduling, RNG or cache-state difference shifts at least one entry.
func equivalenceTrial(i int, src MachineSource) []int64 {
	cfg := batchTestConfig()
	seed := int64(1009*i + 31)
	var fp []int64

	m := src.NewMachine(cfg, 1<<24, seed)
	m.SchedulePreempt("a", 500, 700)
	m.ScheduleTimerSpike("b", 800, 4000, 9, seed)
	m.SetClockDrift("b", 120)
	m.Spawn("a", 0, nil, func(c *Core) {
		buf := c.Alloc(4 * mem.PageSize)
		for k := 0; k < 32; k++ {
			fp = append(fp, c.TimedLoad(buf+mem.VAddr((k%13)*64)))
		}
		c.Fence()
		for k := 0; k < 8; k++ {
			fp = append(fp, c.TimedFlush(buf+mem.VAddr(k*64)))
		}
		fp = append(fp, c.Now())
	})
	m.Spawn("b", 1, nil, func(c *Core) {
		buf := c.Alloc(4 * mem.PageSize)
		for k := 0; k < 24; k++ {
			fp = append(fp, c.TimedPrefetchNTA(buf+mem.VAddr((k%7)*64)))
			if k%5 == 0 {
				c.Spin(37)
			}
		}
		r := c.Load(buf)
		fp = append(fp, int64(r.Level), r.Latency, c.Now())
	})
	m.Run()

	// Second machine in the same trial: on an arena this recycles the
	// first machine's hierarchy, so an incomplete reset shows
	// up as a fingerprint difference against the scalar kernel.
	m2 := src.NewMachine(cfg, 1<<24, seed^0x5a5a)
	m2.Spawn("walker", 0, nil, func(c *Core) {
		buf := c.Alloc(8 * mem.PageSize)
		for k := 0; k < 48; k++ {
			fp = append(fp, c.TimedLoad(buf+mem.VAddr(k*64)))
		}
		fp = append(fp, c.Now())
	})
	m2.Run()
	return fp
}

// scalarSource builds every machine from scratch: the reference the arena
// runs must match.
type scalarSource struct{}

func (scalarSource) NewMachine(cfg hier.Config, memBytes uint64, seed int64) *Machine {
	return MustNewMachine(cfg, memBytes, seed)
}

// Scalar returns the non-recycling source.
func Scalar() MachineSource { return scalarSource{} }

// SerialTrials is the scalar TrialFor: a plain loop over fresh machines.
func SerialTrials(n int, body func(i int, src MachineSource)) {
	for i := 0; i < n; i++ {
		body(i, Scalar())
	}
}

func runEquivalenceTrials(n int, tf TrialFor) [][]int64 {
	fps := make([][]int64, n)
	tf(n, func(i int, src MachineSource) {
		fps[i] = equivalenceTrial(i, src)
	})
	return fps
}

func TestBatchScalarEquivalence(t *testing.T) {
	const n = 10
	want := runEquivalenceTrials(n, SerialTrials)
	got := runEquivalenceTrials(n, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, NewArena(), body)
	})
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("trial %d fingerprint diverges from scalar (lengths %d vs %d)",
				i, len(got[i]), len(want[i]))
		}
	}
	// A nil arena, which the engine passes, must not change results
	// either.
	got = runEquivalenceTrials(n, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, nil, body)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global-arena batch run diverges from scalar")
	}
}

func TestBatchRecyclesHierarchies(t *testing.T) {
	const n = 12
	ar := NewArena()
	hs := make([]*hier.Hierarchy, n)
	RunBatch(n, 1, ar, func(i int, src MachineSource) {
		m := src.NewMachine(batchTestConfig(), 1<<24, int64(i))
		hs[i] = m.H
		m.Spawn("a", 0, nil, func(c *Core) {
			buf := c.Alloc(mem.PageSize)
			c.Load(buf)
		})
		m.Run()
	})
	distinct := map[*hier.Hierarchy]bool{}
	for _, h := range hs {
		distinct[h] = true
	}
	// The first trial builds the hierarchy and every later one recycles it.
	if len(distinct) != 1 {
		t.Fatalf("batch of %d trials built %d hierarchies; want 1", n, len(distinct))
	}
}

// TestBatchPanicAbortsFleet pins the panic contract: the first panicking
// trial stops the loop, its *AgentError reaches the caller, no later trial
// starts, and every agent coroutine — the long-lived daemons included — is
// gone by the time the panic surfaces.
func TestBatchPanicAbortsFleet(t *testing.T) {
	before := runtime.NumGoroutine()
	var started atomic.Int64
	func() {
		defer func() {
			r := recover()
			ae, ok := r.(*AgentError)
			if !ok {
				t.Fatalf("recovered %T %v; want *AgentError", r, r)
			}
			if ae.Agent != "bomb" {
				t.Fatalf("AgentError.Agent = %q, want %q", ae.Agent, "bomb")
			}
		}()
		RunBatch(9, 1, NewArena(), func(i int, src MachineSource) {
			started.Add(1)
			m := src.NewMachine(batchTestConfig(), 1<<24, int64(i))
			name := "worker"
			if i == 4 {
				name = "bomb"
			}
			m.Spawn(name, 0, nil, func(c *Core) {
				buf := c.Alloc(mem.PageSize)
				for k := 0; k < 100; k++ {
					c.Load(buf + mem.VAddr((k%16)*64))
				}
				if i == 4 {
					panic("boom")
				}
			})
			// A long-lived daemon on every machine: the abort path must
			// tear it down or its coroutine leaks.
			m.SpawnDaemon("noise", 1, nil, func(c *Core) {
				buf := c.Alloc(mem.PageSize)
				for {
					c.Load(buf)
					c.Spin(50)
				}
			})
			m.Run()
		})
		t.Fatalf("RunBatch returned; want panic")
	}()
	if n := started.Load(); n != 5 {
		t.Fatalf("%d trials started; want 5 (none after the panic)", n)
	}
	settleGoroutines(t, before)
}

// TestRunBatchDegenerateWidths pins RunBatch's legacy width argument as
// having no effect, with a nil (private) arena.
func TestRunBatchDegenerateWidths(t *testing.T) {
	want := runEquivalenceTrials(3, SerialTrials)
	for _, width := range []int{0, 1, 8} {
		got := runEquivalenceTrials(3, func(n int, body func(i int, src MachineSource)) {
			RunBatch(n, width, nil, body)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d diverges from scalar", width)
		}
	}
	// n <= 0 must be a no-op, not a hang.
	RunBatch(0, 4, nil, func(i int, src MachineSource) {
		t.Fatalf("body called for n=0")
	})
}

// spinTrial runs a machine whose agent (plus a daemon) would spin for far
// longer than any test allows; only cancellation ends it.
func spinTrial(started *atomic.Int64) func(i int, src MachineSource) {
	return func(i int, src MachineSource) {
		started.Add(1)
		m := src.NewMachine(batchTestConfig(), 1<<24, int64(i))
		m.Spawn("spinner", 0, nil, func(c *Core) {
			buf := c.Alloc(mem.PageSize)
			for k := 0; k < 1<<40; k++ {
				c.Load(buf + mem.VAddr((k%16)*64))
			}
		})
		m.SpawnDaemon("noise", 1, nil, func(c *Core) {
			for {
				c.Spin(50)
			}
		})
		m.Run()
	}
}

// TestRunBatchContextCancel pins the kernel's cancellation contract: a
// cancelled trial stops within ctxCheckCycles simulated cycles, returns
// ctx.Err(), starts no further trial and tears every agent coroutine down;
// a pre-cancelled context starts no trial at all.
func TestRunBatchContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	time.AfterFunc(40*time.Millisecond, cancel)
	t0 := time.Now()
	err := RunBatchContext(ctx, 32, NewArena(), spinTrial(&started))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d trials started; want 1", n)
	}
	settleGoroutines(t, before)

	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	started.Store(0)
	if err := RunBatchContext(ctx, 8, nil, spinTrial(&started)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("pre-cancelled run started %d trials", n)
	}
}

// TestCancelWhileHostParked cancels a two-agent trial from the second
// agent's turn, so the host is parked in the scheduling loop when the
// cancellation checkpoint fires: the host body unwinds with its defers
// run, RunBatchContext returns ctx.Err() without starting another trial,
// no coroutine survives, and trials on a fresh arena still match fresh
// machines.
func TestCancelWhileHostParked(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	unwound, finished := false, false
	spin := func(c *Core) {
		for k := 0; k < 1<<20; k++ {
			c.Spin(40)
		}
	}
	err := RunBatchContext(ctx, 4, NewArena(), func(i int, src MachineSource) {
		started.Add(1)
		m := src.NewMachine(batchTestConfig(), 1<<24, int64(i))
		m.Spawn("host", 0, nil, func(c *Core) {
			defer func() { unwound = true }()
			spin(c)
			finished = true
		})
		m.Spawn("canceller", 1, nil, func(c *Core) {
			c.Spin(1000)
			cancel()
			spin(c)
		})
		m.Run()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 1 || finished || !unwound {
		t.Fatalf("started %d trials, host finished %v, host unwound %v; want 1, false, true", n, finished, unwound)
	}
	settleGoroutines(t, before)

	want := runEquivalenceTrials(3, SerialTrials)
	got := runEquivalenceTrials(3, func(n int, body func(i int, src MachineSource)) {
		RunBatch(n, 1, NewArena(), body)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("trials after a cancelled run diverge from fresh machines")
	}
}

// TestRecyclerContract pins how RunBatchContext uses the process-wide
// recycler: a run that builds no machine builds nothing, a clean run
// returns its last hierarchy so the next same-config build gets it back,
// and a cancelled run's hierarchy is never reused.
func TestRecyclerContract(t *testing.T) {
	cfg := batchTestConfig()
	cfg.Name = "recycler-contract" // a pool key no other test uses
	var last *hier.Hierarchy
	build := func(i int, src MachineSource) {
		m := src.NewMachine(cfg, 1<<24, int64(i))
		last = m.H
		m.Spawn("a", 0, nil, func(c *Core) { c.Load(c.Alloc(mem.PageSize)) })
		m.Run()
	}
	memoLen := func() int {
		shuffles.Lock()
		defer shuffles.Unlock()
		return len(shuffles.m)
	}

	if err := RunBatchContext(context.Background(), 1, nil, build); err != nil {
		t.Fatal(err)
	}
	first, memo := last, memoLen()

	ar := NewArena()
	if allocs := testing.AllocsPerRun(10, func() {
		RunBatch(3, 1, ar, func(int, MachineSource) {})
	}); allocs != 0 || memoLen() != memo {
		t.Fatalf("machine-free run allocated %.0f times and grew the shuffle memo %d -> %d", allocs, memo, memoLen())
	}

	if err := RunBatchContext(context.Background(), 1, nil, build); err != nil {
		t.Fatal(err)
	}
	if last != first {
		t.Fatal("the build after a clean run did not get the hierarchy that run returned")
	}

	ctx, cancel := context.WithCancel(context.Background())
	err := RunBatchContext(ctx, 1, nil, func(i int, src MachineSource) {
		cancel()
		build(i, src)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last != first {
		t.Fatal("the cancelled run did not get the pooled hierarchy")
	}
	if err := RunBatchContext(context.Background(), 1, nil, build); err != nil {
		t.Fatal(err)
	}
	if last == first {
		t.Fatal("a cancelled run's hierarchy was reused")
	}
}

// TestShuffleBuiltOnce: goroutines that ask for one shuffle key together,
// as the shards of a sweep do when they start, share one build of it.
func TestShuffleBuiltOnce(t *testing.T) {
	const callers = 8
	const bytes, seed = 1<<30 + 3*mem.PageSize, -0x5eed // a key no other test uses
	got := make([]*mem.FrameShuffle, callers)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			got[i] = shuffle(bytes, seed)
		}()
	}
	close(release)
	wg.Wait()
	for i, sh := range got {
		if sh != got[0] {
			t.Fatalf("caller %d got a shuffle of its own; the key was built more than once", i)
		}
	}
}

// TestRunBatchConcurrentMatchesSerial runs four trial loops at once on the
// process-wide recycler, over seeds every loop shares and seeds only one
// loop uses: hierarchies and shuffles then cross goroutines, and every
// fingerprint must still equal a fresh machine's. Run it under -race.
func TestRunBatchConcurrentMatchesSerial(t *testing.T) {
	const loops, shared, own = 4, 3, 3
	index := func(g, j int) int {
		if j < shared {
			return j
		}
		return 100*(g+1) + j
	}
	got := make([][][]int64, loops)
	var wg sync.WaitGroup
	for g := range loops {
		got[g] = make([][]int64, shared+own)
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunBatch(shared+own, 1, nil, func(j int, src MachineSource) {
				got[g][j] = equivalenceTrial(index(g, j), src)
			})
		}()
	}
	wg.Wait()
	for g := range loops {
		for j := range shared + own {
			var want []int64
			SerialTrials(1, func(_ int, src MachineSource) { want = equivalenceTrial(index(g, j), src) })
			if !reflect.DeepEqual(got[g][j], want) {
				t.Fatalf("loop %d trial %d (index %d) diverges from a fresh machine", g, j, index(g, j))
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzBatchScalarEquivalence drives randomized seeds through an arena and
// through fresh machines and requires identical fingerprints.
func FuzzBatchScalarEquivalence(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		const n = 4
		trial := func(i int, src MachineSource) []int64 {
			cfg := batchTestConfig()
			s := seed + int64(i)*911
			var fp []int64
			m := src.NewMachine(cfg, 1<<24, s)
			m.ScheduleTimerSpike("a", 300, 3000, 7, s)
			m.Spawn("a", 0, nil, func(c *Core) {
				buf := c.Alloc(2 * mem.PageSize)
				for k := 0; k < 24; k++ {
					fp = append(fp, c.TimedLoad(buf+mem.VAddr((k%9)*64)))
				}
				fp = append(fp, c.Now())
			})
			m.Run()
			return fp
		}
		want := make([][]int64, n)
		SerialTrials(n, func(i int, src MachineSource) { want[i] = trial(i, src) })
		got := make([][]int64, n)
		RunBatch(n, 1, NewArena(), func(i int, src MachineSource) { got[i] = trial(i, src) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("arena fingerprints diverge from scalar (seed=%d)", seed)
		}
	})
}
