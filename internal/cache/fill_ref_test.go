package cache

import (
	"fmt"
	"testing"

	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

// recordingPolicy wraps a policy so a test can see the evictable mask every
// Victim call receives.
type recordingPolicy struct {
	policy.Policy
	calls     int
	evictable policy.Mask
}

func (p *recordingPolicy) NewSet(ways int) policy.SetState {
	return &recordingSet{SetState: p.Policy.NewSet(ways), p: p}
}

type recordingSet struct {
	policy.SetState
	p *recordingPolicy
}

func (s *recordingSet) Victim(evictable policy.Mask) int {
	s.p.calls++
	s.p.evictable = evictable
	return s.SetState.Victim(evictable)
}

// checkSummaries verifies every set's summary words against the per-way
// lanes: valid mirrors the meta valid bits and latest bounds every ready.
func checkSummaries(c *Cache) error {
	for set := 0; set < c.cfg.Sets; set++ {
		var valid policy.Mask
		for w := 0; w < c.cfg.Ways; w++ {
			i := set*c.cfg.Ways + w
			if c.meta[i]&metaValid != 0 {
				valid |= 1 << uint(w)
			}
			if c.ready[i] > c.sum[set].latest {
				return fmt.Errorf("set %d way %d ready %d above latest %d", set, w, c.ready[i], c.sum[set].latest)
			}
		}
		if valid != c.sum[set].valid {
			return fmt.Errorf("set %d valid word %#x, meta lane %#x", set, c.sum[set].valid, valid)
		}
	}
	return nil
}

// bruteFill is what Fill and Install must do, computed by scanning every way
// before the fill: the present way, else the first allowed invalid way,
// else the evictable mask handed to the policy (ready <= now, allowed).
func bruteFill(c *Cache, set int, la mem.LineAddr, now int64, allowed policy.Mask) (present, free int, evictable policy.Mask) {
	present, free = -1, -1
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.meta[base+w]&metaValid != 0 && c.addrs[base+w] == la {
			return w, -1, 0
		}
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if c.meta[base+w]&metaValid == 0 && allowed.Has(w) {
			return -1, w, 0
		}
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if c.ready[base+w] <= now {
			evictable |= 1 << uint(w)
		}
	}
	return -1, -1, evictable & allowed
}

// FuzzCacheFillReference checks the fill path's set summaries against a
// brute-force per-way scan. The first byte picks the geometry and policy;
// each later 4-byte group is one op: Fill, or Install with a random allowed
// mask when the line is absent (Install's precondition; a present line goes
// through Fill), with a clock step and in-flight window; Invalidate,
// InvalidateAll or Reset. Before every fill the expected way or evictable mask is computed
// by scanning the lanes; after every op the summaries must match the lanes.
func FuzzCacheFillReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 0, 0, 4, 0, 70, 0, 6, 0, 70, 0, 8, 1, 0, 3, 10, 9, 0})
	f.Add([]byte{5, 3, 0, 0, 100, 3, 2, 0, 100, 3, 4, 0, 100, 4, 6, 40, 0, 13, 0, 0, 0, 15, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 0x55, 1, 2, 1, 0x55, 1, 4, 1, 0xaa, 12, 2, 0, 0, 14, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := []int{1, 2, 3, 4, 8, 12, 16, 64}[data[0]%8]
		pols := []policy.Policy{policy.NewQuadAge(), policy.NewBitPLRU(), policy.NewTreePLRU()}
		inner := pols[int(data[0]/8)%len(pols)]
		if inner.Name() == "tree-plru" && ways&(ways-1) != 0 {
			ways &= ways - 1 // round 3 and 12 down to a power of two
		}
		rec := &recordingPolicy{Policy: inner}
		c := New(Config{Name: "fuzz", Sets: 2, Ways: ways, Pol: rec})
		var now int64
		for i := 1; i+3 < len(data); i += 4 {
			op, a, b, d := data[i]%16, data[i+1], data[i+2], data[i+3]
			set, la := int(a&1), mem.LineAddr(a>>1)%mem.LineAddr(ways+8)
			now += int64(b % 32)
			switch {
			case op < 10:
				readyAt := now
				if d&0x80 != 0 {
					readyAt += int64(d % 64)
				}
				allowed := c.all
				if op >= 6 {
					allowed = policy.Mask(uint64(d)*0x0101010101010101) & c.all
				}
				present, free, evictable := bruteFill(c, set, la, now, allowed)
				calls, cls := rec.calls, policy.AccessClass(op%4)
				var way int
				if op < 6 || present >= 0 {
					way, _, _ = c.Fill(set, la, cls, now, readyAt)
				} else {
					way, _, _ = c.Install(set, la, cls, now, readyAt, allowed)
				}
				called := rec.calls != calls
				switch {
				case present >= 0:
					if way != present || called {
						t.Fatalf("op %d: refill of present way %d gave way %d (victim search %v)", i/4, present, way, called)
					}
				case free >= 0:
					if way != free || called {
						t.Fatalf("op %d: fill with free way %d gave way %d (victim search %v)", i/4, free, way, called)
					}
				default:
					if !called || rec.evictable != evictable {
						t.Fatalf("op %d: victim search %v with mask %#x, brute force %#x", i/4, called, rec.evictable, evictable)
					}
				}
			case op < 14:
				c.Invalidate(set, la)
			case op == 14:
				c.InvalidateAll()
			default:
				c.Reset()
			}
			if err := checkSummaries(c); err != nil {
				t.Fatalf("op %d: %v", i/4, err)
			}
		}
	})
}
