package victim

import (
	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// ExponentVictim models a square-and-multiply modular exponentiation: one
// fixed-length window per exponent bit, with the multiply routine's code
// line touched only when the bit is 1. Monitoring that single line with a
// scope attack recovers the exponent — the classic RSA scenario the scope
// attacks of Section V-A are built for.
type ExponentVictim struct {
	// Exponent is the secret bit string, MSB first.
	Exponent []bool
	// MulLine is the multiply routine's cache line (victim address
	// space); the attacker monitors the LLC set it maps to.
	MulLine mem.VAddr
	// Window is the cycle length of one square-and-multiply iteration.
	Window int64
	// Start is when the exponentiation begins.
	Start int64
}

// NewExponentVictim allocates the multiply routine's line in as.
func NewExponentVictim(as *mem.AddressSpace, exponent []bool, window, start int64) (*ExponentVictim, error) {
	buf, err := as.Alloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	return &ExponentVictim{Exponent: exponent, MulLine: buf, Window: window, Start: start}, nil
}

// Spawn starts the victim daemon: it walks the exponent bits once, touching
// the multiply line mid-window for every 1 bit, then idles.
func (v *ExponentVictim) Spawn(m *sim.Machine, coreID int, as *mem.AddressSpace) {
	m.SpawnDaemon("exp-victim", coreID, as, func(c *sim.Core) {
		for i, bit := range v.Exponent {
			c.WaitUntil(v.Start + int64(i)*v.Window + v.Window/2)
			if bit {
				c.Load(v.MulLine)
			}
		}
		for {
			c.Spin(1 << 20) // exponentiation done; idle forever
		}
	})
}

// SpyExponent mounts Prime+Prefetch+Scope against the victim's multiply
// line and reconstructs the exponent from the detection timeline: a window
// containing a detection is a 1, an empty window a 0. The attacker uses the
// paper's 31-reference NTA preparation, so it re-arms well within one
// window.
//
// The returned slice is the recovered exponent; the bool reports whether
// every window was observed (the attacker kept up).
func SpyExponent(m *sim.Machine, coreID int, as *mem.AddressSpace, v *ExponentVictim, vicAS *mem.AddressSpace) *[]bool {
	recovered := &[]bool{}
	// The eviction set targets the multiply line's LLC set.
	mulLLC := vicAS.MustTranslate(v.MulLine).Line()
	evset, err := core.CongruentWithLine(m, as, mulLLC, m.H.Config().LLCWays)
	if err != nil {
		panic(err)
	}
	m.Spawn("exp-spy", coreID, as, func(c *sim.Core) {
		th := core.Calibrate(c, 48)
		n := len(v.Exponent)
		// Rotate the priming order across iterations (see RunScope).
		view := make([]mem.VAddr, len(evset))
		for w := 0; w < n; w++ {
			core.RotateView(view, evset, w)
			// Prepare before the window opens, then scope through it.
			c.WaitUntil(v.Start + int64(w)*v.Window - v.Window/4)
			core.PrimePrefetchScopePrepare(c, view, 2)
			end := v.Start + int64(w+1)*v.Window - v.Window/4
			hit := false
			for c.Now() < end {
				if t := c.TimedLoad(view[0]); t > th.L1Threshold {
					hit = true
					// Stay quiet until the window closes; the
					// next prepare re-arms the set.
					c.WaitUntil(end)
					break
				}
			}
			*recovered = append(*recovered, hit)
		}
	})
	return recovered
}
