package policy

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTreePLRUBasics(t *testing.T) {
	p := NewTreePLRU()
	s := p.NewSet(4)
	// Touch 0,1,2,3 in order: the victim should be 0 (least recent).
	for w := 0; w < 4; w++ {
		s.OnFill(w, ClassLoad)
	}
	if v := s.Victim(allEvictable); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	// Re-touch 0: victim moves to the other subtree.
	s.OnHit(0, ClassLoad)
	if v := s.Victim(allEvictable); v == 0 {
		t.Fatal("victim should no longer be way 0 after touching it")
	}
}

func TestTreePLRUMRUNeverVictim(t *testing.T) {
	// Property: the most recently touched way is never the PLRU victim.
	p := NewTreePLRU()
	f := func(ops []uint8) bool {
		s := p.NewSet(8)
		last := -1
		for _, op := range ops {
			w := int(op) % 8
			s.OnHit(w, ClassLoad)
			last = w
		}
		if last < 0 {
			return true
		}
		return s.Victim(allEvictable) != last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePLRURequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ways=6")
		}
	}()
	NewTreePLRU().NewSet(6)
}

func TestTreePLRUFallbackWhenVictimPinned(t *testing.T) {
	p := NewTreePLRU()
	s := p.NewSet(4)
	for w := 0; w < 4; w++ {
		s.OnFill(w, ClassLoad)
	}
	v := s.Victim(allEvictable.Without(0))
	if v == 0 || v == -1 {
		t.Fatalf("victim = %d, want an evictable way != 0", v)
	}
	if v := s.Victim(Mask(0)); v != -1 {
		t.Fatalf("victim with nothing evictable = %d, want -1", v)
	}
}

func TestBitPLRUBasics(t *testing.T) {
	p := NewBitPLRU()
	s := p.NewSet(4)
	s.OnFill(0, ClassLoad)
	s.OnFill(1, ClassLoad)
	// Ways 2,3 have zero bits; first zero-bit way is the victim.
	if v := s.Victim(allEvictable); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	// Saturation: setting the last bit clears the others.
	s.OnFill(2, ClassLoad)
	s.OnFill(3, ClassLoad)
	snap := s.Snapshot()
	want := []int{0, 0, 0, 1}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("after saturation, bits = %v, want %v", snap, want)
		}
	}
	if v := s.Victim(allEvictable); v != 0 {
		t.Fatalf("victim after saturation = %d, want 0", v)
	}
}

func TestBitPLRUInvalidateClearsBit(t *testing.T) {
	p := NewBitPLRU()
	s := p.NewSet(2)
	s.OnFill(0, ClassLoad)
	s.OnInvalidate(0)
	if s.Snapshot()[0] != 0 {
		t.Fatal("invalidate should clear the MRU bit")
	}
}

func TestLRUExactOrder(t *testing.T) {
	p := NewLRU()
	s := p.NewSet(4)
	for w := 0; w < 4; w++ {
		s.OnFill(w, ClassLoad)
	}
	s.OnHit(0, ClassLoad) // order now 1,2,3,0 (oldest first)
	for _, want := range []int{1, 2, 3} {
		v := s.Victim(allEvictable)
		if v != want {
			t.Fatalf("victim = %d, want %d", v, want)
		}
		s.OnInvalidate(v)
		s.OnFill(v, ClassLoad)
	}
}

func TestLRUVictimIsOldest(t *testing.T) {
	p := NewLRU()
	f := func(ops []uint8) bool {
		const ways = 4
		s := p.NewSet(ways)
		order := []int{} // recency list, oldest first
		for w := 0; w < ways; w++ {
			s.OnFill(w, ClassLoad)
			order = append(order, w)
		}
		for _, op := range ops {
			w := int(op) % ways
			s.OnHit(w, ClassLoad)
			for i, x := range order {
				if x == w {
					order = append(append(order[:i:i], order[i+1:]...), w)
					break
				}
			}
		}
		return s.Victim(allEvictable) == order[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSRRIPBasics(t *testing.T) {
	p := NewSRRIP()
	s := p.NewSet(4)
	for w := 0; w < 4; w++ {
		s.OnFill(w, ClassLoad) // rrpv 2
	}
	s.OnHit(1, ClassLoad) // rrpv 0
	v := s.Victim(allEvictable)
	if v == 1 {
		t.Fatal("hit-promoted way chosen as victim")
	}
	// NTA inserts at distant rrpv: immediately the next victim.
	s2 := p.NewSet(2)
	s2.OnFill(0, ClassLoad)
	s2.OnFill(1, ClassNTA)
	if v := s2.Victim(allEvictable); v != 1 {
		t.Fatalf("victim = %d, want the NTA way 1", v)
	}
}

func TestRandomVictimEvictableOnly(t *testing.T) {
	p := NewRandom(1)
	s := p.NewSet(8)
	counts := make([]int, 8)
	for i := 0; i < 400; i++ {
		v := s.Victim(evenWays)
		if v%2 != 0 {
			t.Fatalf("victim %d is not evictable", v)
		}
		counts[v]++
	}
	// All four evictable ways should be chosen at least once.
	for w := 0; w < 8; w += 2 {
		if counts[w] == 0 {
			t.Errorf("way %d never chosen in 400 draws", w)
		}
	}
	if v := s.Victim(Mask(0)); v != -1 {
		t.Fatalf("victim = %d, want -1", v)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{
		NewQuadAge(), NewQuadAgeCountermeasure(), NewTreePLRU(),
		NewBitPLRU(), NewLRU(), NewSRRIP(), NewRandom(0),
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestAccessClassString(t *testing.T) {
	want := map[AccessClass]string{
		ClassLoad: "load", ClassNTA: "nta", ClassT0: "t0", ClassHW: "hw",
		AccessClass(99): "unknown",
	}
	for cls, s := range want {
		if cls.String() != s {
			t.Errorf("%d.String() = %q, want %q", cls, cls.String(), s)
		}
	}
}

// TestInvalidateReplacementState pins what a flush or back-invalidation
// (OnInvalidate) does to each policy's replacement state, a modelling
// choice: Flushgeist shows replacement metadata surviving CLFLUSH on real
// parts. Tree-PLRU and random keep their state, so the set's next victims
// are those of an identical set that saw no invalidation. Bit-PLRU, LRU,
// SRRIP and quad-age clear the way: its MRU bit, use stamp (the way ranks
// oldest), RRPV or age returns to the never-filled value. Each set fills
// ways 0-3 with loads, hits way 1, then invalidates way 1.
func TestInvalidateReplacementState(t *testing.T) {
	for _, tc := range []struct {
		pol          Policy
		keeps        bool
		before, want []int
	}{
		{NewTreePLRU(), true, []int{0, 0, 1, 0}, []int{0, 0, 1, 0}},
		{NewRandom(7), true, []int{0, 0, 0, 0}, []int{0, 0, 0, 0}},
		{NewBitPLRU(), false, []int{0, 1, 0, 1}, []int{0, 0, 0, 1}},
		{NewLRU(), false, []int{3, 0, 2, 1}, []int{2, 3, 1, 0}},
		{NewSRRIP(), false, []int{2, 0, 2, 2}, []int{2, -1, 2, 2}},
		{NewQuadAge(), false, []int{2, 1, 2, 2}, []int{2, -1, 2, 2}},
	} {
		name := tc.pol.Name()
		s, twin := tc.pol.NewSet(4), tc.pol.NewSet(4)
		for _, st := range []SetState{s, twin} {
			fillSet(st, 4)
			st.OnHit(1, ClassLoad)
		}
		if got := s.Snapshot(); !slices.Equal(got, tc.before) {
			t.Fatalf("%s: state before invalidation %v, want %v", name, got, tc.before)
		}
		s.OnInvalidate(1)
		if got := s.Snapshot(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: state after invalidating way 1 %v, want %v", name, got, tc.want)
		}
		if !tc.keeps {
			continue
		}
		for i := 0; i < 8; i++ {
			v, w := s.Victim(allEvictable.Without(i%4)), twin.Victim(allEvictable.Without(i%4))
			if v != w {
				t.Fatalf("%s: victim %d after invalidation is way %d, without it way %d", name, i, v, w)
			}
			s.OnFill(v, ClassLoad)
			twin.OnFill(w, ClassLoad)
		}
	}
}
