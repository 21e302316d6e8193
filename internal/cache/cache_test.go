package cache

import (
	"testing"
	"testing/quick"

	"leakyway/internal/mem"
	"leakyway/internal/policy"
)

func newTestCache(sets, ways int) *Cache {
	return New(Config{Name: "test", Sets: sets, Ways: ways, Pol: policy.NewQuadAge()})
}

func TestFillAndProbe(t *testing.T) {
	c := newTestCache(4, 2)
	la := mem.LineAddr(0x100)
	if _, ok := c.Probe(0, la); ok {
		t.Fatal("empty cache reports hit")
	}
	way, _, evicted := c.Fill(0, la, policy.ClassLoad, 0, 0)
	if way < 0 || evicted {
		t.Fatalf("first fill: way=%d evicted=%v", way, evicted)
	}
	if w, ok := c.Probe(0, la); !ok || w < 0 {
		t.Fatal("line not found after fill")
	}
	// The same line in a different set is independent.
	if _, ok := c.Probe(1, la); ok {
		t.Fatal("line leaked into another set")
	}
}

func TestFillEvictsWhenFull(t *testing.T) {
	c := newTestCache(1, 4)
	for i := 0; i < 4; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	way, ev, evicted := c.Fill(0, mem.LineAddr(100), policy.ClassLoad, 0, 0)
	if way < 0 || !evicted {
		t.Fatalf("full-set fill: way=%d evicted=%v", way, evicted)
	}
	if _, ok := c.Probe(0, ev.Addr); ok {
		t.Fatal("evicted line still present")
	}
	if _, ok := c.Probe(0, mem.LineAddr(100)); !ok {
		t.Fatal("new line absent after fill")
	}
	if c.Occupancy(0) != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy(0))
	}
}

func TestFillDuplicateIsHit(t *testing.T) {
	c := newTestCache(1, 2)
	la := mem.LineAddr(7)
	c.Fill(0, la, policy.ClassLoad, 0, 0)
	way, _, evicted := c.Fill(0, la, policy.ClassLoad, 0, 0)
	if way < 0 || evicted {
		t.Fatal("re-filling a present line must be a silent hit")
	}
	if c.Occupancy(0) != 1 {
		t.Fatalf("occupancy = %d, want 1 (no duplicate ways)", c.Occupancy(0))
	}
}

func TestInFlightBlocksEviction(t *testing.T) {
	c := newTestCache(1, 2)
	// Both lines in flight until cycle 100.
	c.Fill(0, 1, policy.ClassLoad, 0, 100)
	c.Fill(0, 2, policy.ClassLoad, 0, 100)
	// At cycle 50 nothing is evictable: the fill is dropped.
	if way, _, _ := c.Fill(0, 3, policy.ClassLoad, 50, 150); way >= 0 {
		t.Fatal("fill succeeded although every way is in flight")
	}
	// At cycle 100 the fills have completed.
	if way, _, evicted := c.Fill(0, 3, policy.ClassLoad, 100, 200); way < 0 || !evicted {
		t.Fatal("fill should succeed once in-flight windows close")
	}
}

func TestInFlightVictimSkipped(t *testing.T) {
	c := newTestCache(1, 4)
	for i := 0; i < 4; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	// Install an NTA line (the eviction candidate) that is in flight.
	c.Fill(0, 50, policy.ClassNTA, 0, 1000)
	// While line 50 is in flight, a new fill must evict something else.
	way, ev, evicted := c.Fill(0, 60, policy.ClassLoad, 10, 20)
	if way < 0 || !evicted {
		t.Fatal("fill should displace a non-in-flight way")
	}
	if ev.Addr == 50 {
		t.Fatal("evicted the in-flight line")
	}
	if _, ok := c.Probe(0, 50); !ok {
		t.Fatal("in-flight line vanished")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(2, 2)
	c.Fill(1, 9, policy.ClassLoad, 0, 0)
	if w, ok := c.Probe(1, 9); !ok {
		t.Fatal("line missing")
	} else {
		c.MarkDirty(1, w)
	}
	present, dirty := c.Invalidate(1, 9)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if present, _ := c.Invalidate(1, 9); present {
		t.Fatal("double invalidate reports present")
	}
}

// TestSharerMask: the core-valid mask is set bit by bit, travels with an
// evicted line, and is cleared by a fill of the way, by Invalidate and by
// Reset.
func TestSharerMask(t *testing.T) {
	c := newTestCache(2, 2)
	w, _, _ := c.Fill(1, 5, policy.ClassLoad, 0, 0)
	c.AddSharer(1, w, 0)
	c.AddSharer(1, w, 63)
	if m := c.Sharers(1, w); m != 1|1<<63 {
		t.Fatalf("mask = %#x, want bits 0 and 63", m)
	}
	if w2, _, _ := c.Fill(1, 5, policy.ClassLoad, 0, 0); w2 != w || c.Sharers(1, w) != 1|1<<63 {
		t.Fatal("re-filling a present line must keep its way and mask")
	}
	w6, _, _ := c.Fill(1, 6, policy.ClassLoad, 0, 0)
	c.AddSharer(1, w6, 2)
	_, ev, evicted := c.Fill(1, 7, policy.ClassLoad, 0, 0)
	if !evicted {
		t.Fatal("full-set fill evicted nothing")
	}
	want := map[mem.LineAddr]uint64{5: 1 | 1<<63, 6: 1 << 2}[ev.Addr]
	if ev.Sharers != want {
		t.Fatalf("evicted %v carries mask %#x, want %#x", ev.Addr, ev.Sharers, want)
	}
	if w7, _ := c.Probe(1, 7); c.Sharers(1, w7) != 0 {
		t.Fatal("a fill must start the way with an empty mask")
	}
	w, _ = c.Probe(1, 7)
	c.AddSharer(1, w, 1)
	c.Invalidate(1, 7)
	if c.Sharers(1, w) != 0 {
		t.Fatal("Invalidate left the mask set")
	}
	survivor := mem.LineAddr(5)
	if ev.Addr == survivor {
		survivor = 6
	}
	w, _ = c.Probe(1, survivor)
	c.AddSharer(1, w, 1)
	c.Reset()
	if c.Sharers(1, w) != 0 {
		t.Fatal("Reset left the mask set")
	}
}

// TestSharerLaneLazy: a cache that never saw AddSharer carries no sharer
// lane, reports empty masks and still fills, evicts, invalidates and
// resets; the first AddSharer allocates the lane.
func TestSharerLaneLazy(t *testing.T) {
	c := newTestCache(2, 2)
	for la := mem.LineAddr(1); la <= 3; la++ {
		if _, ev, evicted := c.Fill(0, la, policy.ClassLoad, 0, 0); evicted && ev.Sharers != 0 {
			t.Fatalf("evicted line carries mask %#x without a sharer lane", ev.Sharers)
		}
	}
	c.Invalidate(0, 3)
	c.InvalidateAll()
	c.Reset()
	if c.sharers != nil {
		t.Fatal("sharer lane allocated without AddSharer")
	}
	w, _, _ := c.Fill(1, 4, policy.ClassLoad, 0, 0)
	if c.Sharers(1, w) != 0 {
		t.Fatal("Sharers without a lane must report 0")
	}
	c.AddSharer(1, w, 5)
	if c.sharers == nil || c.Sharers(1, w) != 1<<5 {
		t.Fatalf("after AddSharer: lane allocated %v, mask %#x", c.sharers != nil, c.Sharers(1, w))
	}
}

func TestInvalidateAll(t *testing.T) {
	c := newTestCache(4, 2)
	for i := 0; i < 6; i++ {
		c.Fill(i%4, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	c.InvalidateAll()
	for set := 0; set < 4; set++ {
		if n := c.Occupancy(set); n != 0 {
			t.Fatalf("set %d keeps %d lines", set, n)
		}
	}
	if got := c.Stats().Flushes; got != 6 {
		t.Fatalf("flushes = %d, want one per invalidated line (6)", got)
	}
}

func TestEvictionCandidateMatchesVictim(t *testing.T) {
	c := newTestCache(1, 8)
	for i := 0; i < 8; i++ {
		c.Fill(0, mem.LineAddr(i), policy.ClassLoad, 0, 0)
	}
	c.Fill(0, 100, policy.ClassNTA, 0, 0) // evicts one, installs candidate
	cand, ok := c.EvictionCandidate(0)
	if !ok || cand != 100 {
		t.Fatalf("candidate = %v,%v; want line 100", cand, ok)
	}
	_, ev, _ := c.Fill(0, 200, policy.ClassLoad, 0, 0)
	if ev.Addr != cand {
		t.Fatalf("actual eviction %v != predicted candidate %v", ev.Addr, cand)
	}
}

func TestStatsCounting(t *testing.T) {
	c := newTestCache(1, 2)
	c.Lookup(0, 1, policy.ClassLoad) // miss
	c.Fill(0, 1, policy.ClassLoad, 0, 0)
	c.Lookup(0, 1, policy.ClassLoad) // hit
	c.Fill(0, 2, policy.ClassLoad, 0, 0)
	c.Fill(0, 3, policy.ClassLoad, 0, 0) // eviction
	c.Invalidate(0, 3)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fills != 3 || st.Evictions != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestViewSetIsolation(t *testing.T) {
	c := newTestCache(1, 2)
	c.Fill(0, 5, policy.ClassLoad, 0, 0)
	v := c.ViewSet(0)
	v.Lines[0].Addr = 999
	v.Meta[0] = 999
	if c.ViewSet(0).Lines[0].Addr == 999 {
		t.Fatal("ViewSet aliases internal lines")
	}
}

// TestCacheNeverDuplicates is a property test: a random operation sequence
// never produces two ways holding the same line in one set.
func TestCacheNeverDuplicates(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newTestCache(2, 4)
		for i, op := range ops {
			la := mem.LineAddr(op % 16)
			set := int(op>>4) % 2
			switch (op >> 5) % 3 {
			case 0:
				c.Fill(set, la, policy.ClassLoad, int64(i), int64(i))
			case 1:
				c.Fill(set, la, policy.ClassNTA, int64(i), int64(i))
			case 2:
				c.Invalidate(set, la)
			}
			for s := 0; s < 2; s++ {
				seen := map[mem.LineAddr]int{}
				for _, ln := range c.ViewSet(s).Lines {
					if ln.Valid {
						seen[ln.Addr]++
						if seen[ln.Addr] > 1 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero sets")
		}
	}()
	New(Config{Name: "bad", Sets: 0, Ways: 1, Pol: policy.NewQuadAge()})
}

// TestEvictionCandidatePredictsFillVictim is a property test: over random
// completed-fill histories (no in-flight windows), the candidate reported by
// EvictionCandidate is exactly the line the next full-set fill displaces.
func TestEvictionCandidatePredictsFillVictim(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newTestCache(1, 8)
		// Fill the set completely first.
		for i := 0; i < 8; i++ {
			c.Fill(0, mem.LineAddr(1000+i), policy.ClassLoad, 0, 0)
		}
		next := mem.LineAddr(2000)
		for _, op := range ops {
			switch op % 3 {
			case 0: // demand hit on a present line
				v := c.ViewSet(0)
				w := int(op/3) % len(v.Lines)
				if v.Lines[w].Valid {
					c.Touch(0, w, policy.ClassLoad)
				}
			case 1: // NTA fill of a fresh line
				pred, okPred := c.EvictionCandidate(0)
				way, ev, evicted := c.Fill(0, next, policy.ClassNTA, 0, 0)
				if way >= 0 && evicted && okPred && ev.Addr != pred {
					return false
				}
				next++
			case 2: // demand fill of a fresh line
				pred, okPred := c.EvictionCandidate(0)
				way, ev, evicted := c.Fill(0, next, policy.ClassLoad, 0, 0)
				if way >= 0 && evicted && okPred && ev.Addr != pred {
					return false
				}
				next++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
