package policy

// SRRIP is static re-reference interval prediction (Jaleel et al.), included
// as an alternative-LLC baseline for countermeasure experiments. With M = 2
// bits it is structurally the same machine as QuadAge but inserts at
// "long re-reference" (MaxAge-1) and promotes hits straight to 0.
type SRRIP struct {
	// MaxRRPV is the distant re-reference value; 3 for 2-bit RRIP.
	MaxRRPV int
	// HitPriority, if true, resets a hit line's RRPV to 0 (SRRIP-HP);
	// otherwise hits decrement it (SRRIP-FP).
	HitPriority bool
}

// NewSRRIP returns 2-bit SRRIP-HP, the common configuration.
func NewSRRIP() *SRRIP { return &SRRIP{MaxRRPV: 3, HitPriority: true} }

// Name implements Policy.
func (p *SRRIP) Name() string {
	if p.HitPriority {
		return "srrip-hp"
	}
	return "srrip-fp"
}

// NewSet implements Policy.
func (p *SRRIP) NewSet(ways int) SetState {
	rrpv := make([]int, ways)
	for i := range rrpv {
		rrpv[i] = -1
	}
	return &srripSet{cfg: p, rrpv: rrpv}
}

type srripSet struct {
	cfg  *SRRIP
	rrpv []int
}

// Victim implements SetState with the standard RRIP search-and-age loop.
func (s *srripSet) Victim(evictable Mask) int {
	if evictable&AllWays(len(s.rrpv)) == 0 {
		return -1
	}
	for {
		for way, v := range s.rrpv {
			if v >= s.cfg.MaxRRPV && evictable.Has(way) {
				return way
			}
		}
		aged := false
		for way, v := range s.rrpv {
			if v >= 0 && v < s.cfg.MaxRRPV {
				s.rrpv[way] = v + 1
				aged = true
			}
		}
		if !aged {
			for way := range s.rrpv {
				if evictable.Has(way) {
					return way
				}
			}
		}
	}
}

// OnFill implements SetState: insert with a long re-reference interval.
func (s *srripSet) OnFill(way int, cls AccessClass) {
	v := s.cfg.MaxRRPV - 1
	if cls == ClassNTA {
		v = s.cfg.MaxRRPV // non-temporal data predicted distant
	}
	s.rrpv[way] = v
}

// OnHit implements SetState.
func (s *srripSet) OnHit(way int, _ AccessClass) {
	if s.cfg.HitPriority {
		s.rrpv[way] = 0
	} else if s.rrpv[way] > 0 {
		s.rrpv[way]--
	}
}

// OnInvalidate implements SetState.
func (s *srripSet) OnInvalidate(way int) { s.rrpv[way] = -1 }

// Reset implements SetState.
func (s *srripSet) Reset() {
	for i := range s.rrpv {
		s.rrpv[i] = -1
	}
}

// AgeAt implements SetState: the raw RRPV.
func (s *srripSet) AgeAt(way int) int { return s.rrpv[way] }
