package hier

import (
	"testing"

	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

func poolTestConfig(seed int64) Config {
	return Config{
		Name: "pool-test", Cores: 2, FreqGHz: 1,
		L1Sets: 8, L1Ways: 4,
		L2Sets: 16, L2Ways: 4,
		LLCSlices: 2, LLCSetsPerSlice: 32, LLCWays: 8,
		Lat:        DefaultLatency(),
		HWPrefetch: HWPrefetchConfig{AdjacentLine: true, Stream: true},
		Seed:       seed,
	}
}

// opFingerprint drives a deterministic op sequence and records every
// outcome; it is sensitive to any residual line, policy, prefetcher or RNG
// state.
func opFingerprint(h *Hierarchy, salt uint64) []int64 {
	var fp []int64
	now := int64(0)
	for k := uint64(0); k < 200; k++ {
		pa := mem.PAddr((salt + k*64*7) % (1 << 20))
		var r Result
		switch k % 4 {
		case 0, 1:
			r = h.Load(int(k%2), pa, now)
		case 2:
			r = h.Store(int(k%2), pa, now)
		case 3:
			r = h.Flush(pa, now)
		}
		now += r.Latency
		fp = append(fp, int64(r.Level), r.Latency)
	}
	return fp
}

func TestPoolRecycleMatchesFresh(t *testing.T) {
	fresh := MustNew(poolTestConfig(7))
	want := opFingerprint(fresh, 1)

	p := NewPool()
	h1, err := p.Get(poolTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	opFingerprint(h1, 99) // dirty every layer with an unrelated workload
	p.Put(h1)

	h2, err := p.Get(poolTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatalf("pool built a new hierarchy instead of recycling (same geometry)")
	}
	if h2.Config().Seed != 7 {
		t.Fatalf("recycled hierarchy seed = %d, want 7", h2.Config().Seed)
	}
	got := opFingerprint(h2, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled hierarchy diverges from fresh at op-record %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestPoolKeysOnGeometry(t *testing.T) {
	p := NewPool()
	a, err := p.Get(poolTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	other := poolTestConfig(2)
	other.LLCWays = 12
	b, err := p.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("pool recycled a hierarchy across different geometries")
	}
	// The original geometry is still pooled.
	c, err := p.Get(poolTestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("pool did not recycle the idle same-geometry hierarchy")
	}
}

// TestPoolKeysPoliciesByValue pins that policies are keyed by type and
// parameters, not by pointer: a caller that builds its policy afresh for
// every machine must recycle, or each machine leaves a free list behind
// that is never reused.
func TestPoolKeysPoliciesByValue(t *testing.T) {
	withLLC := func(seed int64, p policy.Policy) Config {
		cfg := poolTestConfig(seed)
		cfg.LLCPolicy = p
		return cfg
	}
	p := NewPool()
	a, err := p.Get(withLLC(1, policy.NewQuadAge()))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	b, err := p.Get(withLLC(2, policy.NewQuadAge()))
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("pool did not recycle across fresh but equal QuadAge policies")
	}
	p.Put(b)
	for _, other := range []policy.Policy{policy.NewQuadAgeCountermeasure(), policy.NewSRRIP(), nil} {
		c, err := p.Get(withLLC(3, other))
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Fatalf("pool recycled a QuadAge hierarchy for LLC policy %v", other)
		}
	}
	// Random's seed is a parameter: Name() alone would merge these.
	r1, err := p.Get(withLLC(4, policy.NewRandom(1)))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(r1)
	if r2, err := p.Get(withLLC(4, policy.NewRandom(2))); err != nil || r2 == r1 {
		t.Fatalf("pool recycled a Random(1) hierarchy for Random(2) (err %v)", err)
	}
}

func TestPoolPutForeignHierarchyIgnored(t *testing.T) {
	p := NewPool()
	h := MustNew(poolTestConfig(1))
	p.Put(h) // not from this pool: must be ignored, not recycled
	got, err := p.Get(poolTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got == h {
		t.Fatalf("pool recycled a hierarchy it never handed out")
	}
}
