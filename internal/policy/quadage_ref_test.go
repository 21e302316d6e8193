package policy

import (
	"slices"
	"testing"
)

// refQuadAgeSet is the one-int8-per-way quad-age the bit-plane quadAgeSet
// replaced, kept as the obviously correct reference: it scans the ages way
// by way and ages them one at a time.
type refQuadAgeSet struct {
	loadAge, ntaAge, hwAge int8
	ntaHitUpdates          bool
	ages                   []int8 // -1 for invalid ways
}

func newRefQuadAgeSet(q *QuadAge, ways int) *refQuadAgeSet {
	s := &refQuadAgeSet{
		loadAge: int8(q.LoadAge), ntaAge: int8(q.NTAAge), hwAge: int8(q.HWAge),
		ntaHitUpdates: q.NTAHitUpdates,
		ages:          make([]int8, ways),
	}
	s.Reset()
	return s
}

func (s *refQuadAgeSet) Victim(evictable Mask) int {
	if evictable&AllWays(len(s.ages)) == 0 {
		return -1
	}
	for round := 0; ; round++ {
		for way, age := range s.ages {
			if age >= 3 && evictable.Has(way) {
				return way
			}
		}
		for way, age := range s.ages {
			if age >= 0 && age < 3 {
				s.ages[way] = age + 1
			}
		}
		if round > 3 {
			for way := range s.ages {
				if evictable.Has(way) {
					return way
				}
			}
		}
	}
}

func (s *refQuadAgeSet) OnFill(way int, cls AccessClass) {
	switch cls {
	case ClassNTA:
		s.ages[way] = s.ntaAge
	case ClassHW:
		s.ages[way] = s.hwAge
	default:
		s.ages[way] = s.loadAge
	}
}

func (s *refQuadAgeSet) OnHit(way int, cls AccessClass) {
	if cls == ClassNTA && !s.ntaHitUpdates {
		return
	}
	if s.ages[way] > 0 {
		s.ages[way]--
	}
}

func (s *refQuadAgeSet) OnInvalidate(way int) { s.ages[way] = -1 }
func (s *refQuadAgeSet) AgeAt(way int) int    { return int(s.ages[way]) }

func (s *refQuadAgeSet) Reset() {
	for i := range s.ages {
		s.ages[i] = -1
	}
}

func (s *refQuadAgeSet) Snapshot() []int {
	out := make([]int, len(s.ages))
	for i, a := range s.ages {
		out[i] = int(a)
	}
	return out
}

// FuzzQuadAgeReference drives one byte stream through the bit-plane
// quad-age and its per-way int8 reference, and requires Victim, AgeAt and
// Snapshot to agree after every operation. The first byte picks the way
// count (1-64); the second picks the insertion ages (0: stock, 1: Section
// VI-D countermeasure, else three ages packed in its low six bits) and, in
// bit 7, NTAHitUpdates. Each later byte pair is (op, way): the op byte's low
// nibble mod 5 is Fill, Hit, Invalidate, Victim or Reset and bits 4-5 are
// the access class. Victim ops draw their evictable mask from the next
// eight bytes, which may set bits beyond the way count (those bytes are
// then read as ops too).
func FuzzQuadAgeReference(f *testing.F) {
	// Stock, 4 ways: load/NTA/HW fills, three load hits walking way 1
	// from 3 to 0, an NTA hit, a full victim search, then a search that
	// may only take the invalidated way 0 (the fallback), and a reset.
	f.Add([]byte{3, 0, 0x00, 0, 0x10, 1, 0x30, 2, 0x00, 3, 0x01, 1, 0x01, 1, 0x01, 1, 0x11, 2,
		0x03, 0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x02, 0, 0x03, 0, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x04, 0})
	// Countermeasure with NTAHitUpdates, 16 ways: NTA hits decrement, and
	// a victim search restricted to alternate ways ages the set.
	f.Add([]byte{15, 0x81, 0x10, 0, 0x10, 5, 0x00, 9, 0x11, 5, 0x11, 5, 0x01, 9,
		0x03, 0, 0xaa, 0xaa, 0, 0, 0, 0, 0, 0, 0x03, 0, 0x55, 0x55, 0, 0, 0, 0, 0, 0})
	// Custom ages (load 3, NTA 2, HW 1), 64 ways: fills at the top ways and
	// a victim search over bits 56-63.
	f.Add([]byte{63, 0x1b, 0x00, 63, 0x10, 62, 0x30, 61, 0x01, 63, 0x01, 62,
		0x03, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x02, 63, 0x04, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := int(data[0])%64 + 1
		var q *QuadAge
		switch c := data[1] & 0x7f; {
		case c == 0:
			q = NewQuadAge()
		case c == 1:
			q = NewQuadAgeCountermeasure()
		default:
			q = &QuadAge{LoadAge: int(c & 3), NTAAge: int(c >> 2 & 3), HWAge: int(c >> 4 & 3)}
		}
		q.NTAHitUpdates = data[1]&0x80 != 0
		got, want := q.NewSet(ways), newRefQuadAgeSet(q, ways)
		for i := 2; i+1 < len(data); i += 2 {
			op, cls, way := data[i]&0xf%5, AccessClass(data[i]>>4&3), int(data[i+1])%ways
			switch op {
			case 0:
				got.OnFill(way, cls)
				want.OnFill(way, cls)
			case 1:
				got.OnHit(way, cls)
				want.OnHit(way, cls)
			case 2:
				got.OnInvalidate(way)
				want.OnInvalidate(way)
			case 3:
				var evictable Mask
				for j := 0; j < 8 && i+2+j < len(data); j++ {
					evictable |= Mask(data[i+2+j]) << (8 * j)
				}
				if g, w := got.Victim(evictable), want.Victim(evictable); g != w {
					t.Fatalf("op %d: Victim(%#x) = %d, reference %d", i/2, evictable, g, w)
				}
			case 4:
				got.Reset()
				want.Reset()
			}
			if gs, ws := got.Snapshot(), want.Snapshot(); !slices.Equal(gs, ws) {
				t.Fatalf("op %d: Snapshot %v, reference %v", i/2, gs, ws)
			}
			for w := 0; w < ways; w++ {
				if g, r := got.AgeAt(w), want.AgeAt(w); g != r {
					t.Fatalf("op %d: AgeAt(%d) = %d, reference %d", i/2, w, g, r)
				}
			}
		}
	})
}

// TestQuadAgeRejectsWideAges pins that an insertion age outside the 2-bit
// range cannot build a set.
func TestQuadAgeRejectsWideAges(t *testing.T) {
	for _, q := range []*QuadAge{
		{LoadAge: 4, NTAAge: 3, HWAge: 2},
		{LoadAge: 2, NTAAge: -1, HWAge: 2},
		{LoadAge: 2, NTAAge: 3, HWAge: 7},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: NewSet did not panic", *q)
				}
			}()
			q.NewSet(4)
		}()
	}
}
