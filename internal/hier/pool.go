package hier

import (
	"reflect"

	"leakyway/internal/policy"
)

// Hierarchy recycling. Building a hierarchy is the dominant per-trial cost of
// a Monte-Carlo sweep (the line arrays and per-set policy states dwarf the
// stepping work of a short trial), so sim.Arena keeps a Pool of
// hierarchies keyed by configuration and re-seeds one per trial instead of
// rebuilding. Reset restores exactly the state New would produce —
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
// It is not goroutine-safe; each worker owns its own Pool (see sim.Arena).
type Pool struct {
	// free holds idle hierarchies per caller configuration (see poolKeyOf).
	free map[poolKey][]*Hierarchy
	// key remembers which free-list each checked-out hierarchy belongs to;
	// the hierarchy's own cfg is the defaulted one and cannot be used.
	key map[*Hierarchy]poolKey
}

// poolKey identifies a free list: the config as passed to Get — before
// withDefaults runs — with Seed zeroed and each policy replaced by its
// policyKey. Keying on policy pointers instead would give every caller
// that builds its policies afresh (a scenario's llc_policy override, say)
// a free list of its own that is never reused.
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
	return &Pool{free: map[poolKey][]*Hierarchy{}, key: map[*Hierarchy]poolKey{}}
}

// Get returns a hierarchy for cfg, recycling an idle one when the pool holds
// a hierarchy built from an identical configuration (ignoring Seed). The
// returned hierarchy is indistinguishable from New(cfg)'s result.
func (p *Pool) Get(cfg Config) (*Hierarchy, error) {
	k := poolKeyOf(cfg)
	if list := p.free[k]; len(list) > 0 {
		h := list[len(list)-1]
		p.free[k] = list[:len(list)-1]
		h.reset(cfg.Seed)
		p.key[h] = k
		return h, nil
	}
	h, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.key[h] = k
	return h, nil
}

// Put returns a hierarchy obtained from Get to the pool. Hierarchies the
// pool did not hand out are ignored.
func (p *Pool) Put(h *Hierarchy) {
	if h == nil {
		return
	}
	k, ok := p.key[h]
	if !ok {
		return
	}
	delete(p.key, h)
	p.free[k] = append(p.free[k], h)
}
