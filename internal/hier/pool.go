package hier

import (
	"reflect"
	"sync"

	"leakyway/internal/policy"
)

// Hierarchy recycling. Building a hierarchy is the dominant per-trial cost of
// a Monte-Carlo sweep (the line arrays and per-set policy states dwarf the
// stepping work of a short trial), so package sim keeps one process-wide
// Pool of hierarchies keyed by configuration and re-seeds one per trial
// instead of rebuilding. Reset restores exactly the state New would produce —
// the sparse touched-set tracking inside package cache makes this cost
// proportional to the sets a trial actually used, not the geometry.

// reset restores the hierarchy to the state New(cfg with Seed=seed) would
// have produced: every cache's lines, policy state, and counters are
// re-zeroed, the jitter RNG is rewound to the new seed, the prefetcher
// stream tables are cleared, and any attached tracer is detached. The
// memoizing Locator is deliberately kept — its contents are a pure function
// of the geometry, so a recycled hierarchy starts with a warm mapping cache
// without observable effect on simulation results.
func (h *Hierarchy) reset(seed int64) {
	for _, c := range h.l1 {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	for _, c := range h.llc {
		c.Reset()
	}
	for _, c := range h.dir {
		c.Reset()
	}
	h.cfg.Seed = seed
	h.rng.Seed(seed ^ 0x1ea11e57)
	for _, p := range h.pf {
		p.streams = [4]streamEntry{}
		p.clock = 0
	}
	h.tr = nil
	h.trAgent = ""
	h.trCore = -1
}

// Pool recycles hierarchies across trials that share a platform geometry.
// It is safe for concurrent use: its lock guards only the free lists, and a
// hierarchy is built or reset outside it. A checked-out hierarchy that is
// never put back is not referenced by the pool.
type Pool struct {
	mu sync.Mutex
	// free holds idle hierarchies per caller configuration (see poolKeyOf).
	free map[poolKey][]*Hierarchy
}

// poolKey identifies a free list: the config as passed to Get — before
// withDefaults runs — with Seed zeroed and each policy replaced by its
// policyKey. Keying on policy pointers instead would give every caller
// that builds its policies afresh (a scenario's llc_policy override, say)
// a free list of its own that is never reused. A hierarchy's own cfg is
// the defaulted one, so the key is kept next to it (Hierarchy.poolKey).
type poolKey struct {
	cfg                           Config
	l1Policy, l2Policy, llcPolicy any
}

func poolKeyOf(cfg Config) poolKey {
	k := poolKey{
		l1Policy:  policyKey(cfg.L1Policy),
		l2Policy:  policyKey(cfg.L2Policy),
		llcPolicy: policyKey(cfg.LLCPolicy),
	}
	cfg.Seed = 0
	cfg.L1Policy, cfg.L2Policy, cfg.LLCPolicy = nil, nil, nil
	k.cfg = cfg
	return k
}

// policyKey returns a comparable value holding p's type and parameters:
// the struct a policy pointer points to, when that is comparable, or p
// itself. Two policies with equal keys build identical per-set state.
func policyKey(p policy.Policy) any {
	v := reflect.ValueOf(p)
	if v.Kind() == reflect.Pointer && !v.IsNil() && v.Elem().Comparable() {
		return v.Elem().Interface()
	}
	return p
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{free: map[poolKey][]*Hierarchy{}}
}

// Get returns a hierarchy for cfg, recycling an idle one when the pool holds
// a hierarchy built from an identical configuration (ignoring Seed). The
// returned hierarchy is indistinguishable from New(cfg)'s result.
func (p *Pool) Get(cfg Config) (*Hierarchy, error) {
	k := poolKeyOf(cfg)
	var h *Hierarchy
	p.mu.Lock()
	if list := p.free[k]; len(list) > 0 {
		h = list[len(list)-1]
		list[len(list)-1] = nil
		p.free[k] = list[:len(list)-1]
	}
	p.mu.Unlock()
	if h != nil {
		h.reset(cfg.Seed)
	} else {
		var err error
		if h, err = New(cfg); err != nil {
			return nil, err
		}
	}
	h.pool, h.poolKey = p, k
	return h, nil
}

// Put returns a hierarchy obtained from Get to the pool. Hierarchies the
// pool did not hand out, or already got back, are ignored.
func (p *Pool) Put(h *Hierarchy) {
	if h == nil || h.pool != p {
		return
	}
	h.pool = nil
	p.mu.Lock()
	p.free[h.poolKey] = append(p.free[h.poolKey], h)
	p.mu.Unlock()
}
