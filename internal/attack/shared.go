package attack

import (
	"leakyway/internal/core"
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// EpochStart is the cycle at which a windowed attack's first window opens;
// the attacker calibrates and prepares before it, and a victim staged by
// the caller times its windows from it. Window i spans
// [EpochStart+i*Window, EpochStart+(i+1)*Window), and the attacker reads it
// out at its end.
const EpochStart = int64(50_000)

// Shared is the staging of a shared-memory attack: an attacker and a victim
// address space that both map the page holding DT (a deduplicated or
// shared-library page), plus attacker lines LLC-congruent with DT.
type Shared struct {
	Attacker, Victim *mem.AddressSpace
	// DT is the monitored line, at the same virtual address in both
	// spaces.
	DT mem.VAddr
	// Lines are attacker lines congruent with DT in the LLC.
	Lines []mem.VAddr
}

// StageShared stages a shared-memory attack on m: the attacker's space,
// then the victim's, then DT on a fresh attacker page mapped into the
// victim, then the given number of congruent lines (none for 0). Every
// attack that shares a line stages it here, so all of them map the same
// frames in the same order.
func StageShared(m *sim.Machine, lines int) (Shared, error) {
	sh := Shared{Attacker: m.NewSpace(), Victim: m.NewSpace()}
	dt, err := sh.Attacker.Alloc(mem.PageSize)
	if err != nil {
		return sh, err
	}
	if err := sh.Victim.MapShared(sh.Attacker, dt, mem.PageSize); err != nil {
		return sh, err
	}
	sh.DT = dt
	if lines > 0 {
		sh.Lines, err = core.CongruentLines(m, sh.Attacker, dt, lines)
	}
	return sh, err
}

// Scope is the staging of a scope attack: an LLC-associativity eviction
// set in the attacker's space, anchored on the first line of a fresh
// attacker page (EvSet[0], the scope line), and one victim line congruent
// with it.
type Scope struct {
	Attacker, Victim *mem.AddressSpace
	EvSet            []mem.VAddr
	VictimLine       mem.VAddr
}

// StageScope stages a scope attack on m: the attacker's space, then the
// victim's, then the eviction set, then the victim line.
func StageScope(m *sim.Machine) (Scope, error) {
	sc := Scope{Attacker: m.NewSpace(), Victim: m.NewSpace()}
	anchor, err := sc.Attacker.Alloc(mem.PageSize)
	if err != nil {
		return sc, err
	}
	rest, err := core.CongruentLines(m, sc.Attacker, anchor, m.H.Config().LLCWays-1)
	if err != nil {
		return sc, err
	}
	sc.EvSet = append([]mem.VAddr{anchor}, rest...)
	dvs, err := core.CongruentWithLine(m, sc.Victim, sc.Attacker.MustTranslate(anchor).Line(), 1)
	if err != nil {
		return sc, err
	}
	sc.VictimLine = dvs[0]
	return sc, nil
}

// windowPattern draws the 64-window access pattern a windowed victim
// repeats from seed, and the ground truth of its first n windows.
func windowPattern(seed uint64, n int) (pattern, truth []bool) {
	pattern = make([]bool, 64)
	rng := newXorshift(seed)
	for i := range pattern {
		pattern[i] = rng.next()&1 == 1
	}
	truth = make([]bool, n)
	for i := range truth {
		truth[i] = pattern[i%len(pattern)]
	}
	return pattern, truth
}

// accuracy is the fraction of windows whose verdict matches the truth.
func accuracy(truth, detected []bool) float64 {
	correct := 0
	for i := range truth {
		if truth[i] == detected[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}
