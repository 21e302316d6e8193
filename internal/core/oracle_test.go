package core

import (
	"fmt"
	"slices"
	"testing"

	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/sim"
)

// refCongruentWithLine is the oracle loop that translated every scanned
// page and asked Geometry.Congruent, kept as the reference the frame-direct
// scan is checked against.
func refCongruentWithLine(m *sim.Machine, as *mem.AddressSpace, tline mem.LineAddr, n int) ([]mem.VAddr, error) {
	geo := m.H.Geometry()
	lineOff := (uint64(tline) % mem.LinesPerPage) * mem.LineSize
	var out []mem.VAddr
	const batch = 64
	for budget := 0; len(out) < n; budget++ {
		if budget > 4096 {
			return nil, fmt.Errorf("core: exhausted %d pages finding congruent lines", budget*batch)
		}
		base, err := as.Alloc(batch * mem.PageSize)
		if err != nil {
			return nil, err
		}
		for p := uint64(0); p < batch && len(out) < n; p++ {
			va := base + mem.VAddr(p*mem.PageSize) + mem.VAddr(lineOff)
			la := as.MustTranslate(va).Line()
			if la != tline && geo.Congruent(la, tline) {
				out = append(out, va)
			}
		}
	}
	return out, nil
}

// refPrivateCongruentLines is the translating reference for
// PrivateCongruentLines.
func refPrivateCongruentLines(m *sim.Machine, as *mem.AddressSpace, target mem.VAddr, n int) ([]mem.VAddr, error) {
	cfg := m.H.Config()
	geo := m.H.Geometry()
	tline := as.MustTranslate(target).Line()
	l1Mask := uint64(cfg.L1Sets - 1)
	l2Mask := uint64(cfg.L2Sets - 1)
	lineOff := target.PageOffset() &^ (mem.LineSize - 1)
	var out []mem.VAddr
	const batch = 64
	for budget := 0; len(out) < n; budget++ {
		if budget > 4096 {
			return nil, fmt.Errorf("core: exhausted %d pages finding private-congruent lines", budget*batch)
		}
		base, err := as.Alloc(batch * mem.PageSize)
		if err != nil {
			return nil, err
		}
		for p := uint64(0); p < batch && len(out) < n; p++ {
			va := base + mem.VAddr(p*mem.PageSize) + mem.VAddr(lineOff)
			la := as.MustTranslate(va).Line()
			if la == tline || geo.Congruent(la, tline) {
				continue
			}
			if uint64(la)&l1Mask != uint64(tline)&l1Mask || uint64(la)&l2Mask != uint64(tline)&l2Mask {
				continue
			}
			out = append(out, va)
		}
	}
	return out, nil
}

// oracleSide is one machine with a receiver and a sender space on its pool.
type oracleSide struct {
	m      *sim.Machine
	rx, tx *mem.AddressSpace
}

// TestOracleMatchesTranslatingReference runs a channel-style setup — anchor
// lines at offsets 0 and 63, sender lines, receiver fillers, noise and a
// private eviction set, interleaved over two spaces on one pool so their
// extents cannot merge — through the oracles and through the translating
// reference loop on an identically seeded machine. Every call must pick the
// same VAddrs, and afterwards both sides must map the same pages and place
// their next Alloc at the same base.
func TestOracleMatchesTranslatingReference(t *testing.T) {
	for _, cfg := range platform.All() {
		for seed := int64(1); seed <= 4; seed++ {
			var got, want oracleSide
			for _, s := range []*oracleSide{&got, &want} {
				s.m = sim.MustNewMachine(cfg, 1<<30, seed)
				s.rx, s.tx = s.m.NewSpace(), s.m.NewSpace()
			}
			for _, off := range []mem.VAddr{0, 63} {
				where := fmt.Sprintf("%s seed %d line %d", cfg.Name, seed, off)
				var targets [2]mem.VAddr
				for i, s := range []*oracleSide{&got, &want} {
					anchor, err := s.rx.Alloc(mem.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					targets[i] = anchor + off*mem.LineSize
				}
				if targets[0] != targets[1] {
					t.Fatalf("%s: anchors diverged: %#x vs %#x", where, targets[0], targets[1])
				}
				target := targets[0]
				tline := got.rx.MustTranslate(target).Line()
				ways := cfg.LLCWays
				steps := []struct {
					name      string
					got, want func() ([]mem.VAddr, error)
				}{
					{"sender line",
						func() ([]mem.VAddr, error) { return CongruentWithLine(got.m, got.tx, tline, 1) },
						func() ([]mem.VAddr, error) { return refCongruentWithLine(want.m, want.tx, tline, 1) }},
					{"receiver fillers",
						func() ([]mem.VAddr, error) { return CongruentLines(got.m, got.rx, target, ways) },
						func() ([]mem.VAddr, error) { return refCongruentWithLine(want.m, want.rx, tline, ways) }},
					{"noise lines",
						func() ([]mem.VAddr, error) { return CongruentWithLine(got.m, got.tx, tline, 24) },
						func() ([]mem.VAddr, error) { return refCongruentWithLine(want.m, want.tx, tline, 24) }},
					{"private eviction set",
						func() ([]mem.VAddr, error) { return PrivateCongruentLines(got.m, got.rx, target, 13) },
						func() ([]mem.VAddr, error) { return refPrivateCongruentLines(want.m, want.rx, target, 13) }},
				}
				for _, st := range steps {
					g, gerr := st.got()
					w, werr := st.want()
					if gerr != nil || werr != nil {
						t.Fatalf("%s %s: err %v, reference %v", where, st.name, gerr, werr)
					}
					if !slices.Equal(g, w) {
						t.Fatalf("%s %s: picked %#x, reference %#x", where, st.name, g, w)
					}
				}
			}
			for _, sp := range []struct {
				name      string
				got, want *mem.AddressSpace
			}{{"receiver", got.rx, want.rx}, {"sender", got.tx, want.tx}} {
				if g, w := sp.got.MappedPages(), sp.want.MappedPages(); !slices.Equal(g, w) {
					t.Fatalf("%s seed %d %s: mapped pages differ from the reference", cfg.Name, seed, sp.name)
				}
				g, gerr := sp.got.Alloc(mem.PageSize)
				w, werr := sp.want.Alloc(mem.PageSize)
				if g != w || gerr != nil || werr != nil {
					t.Fatalf("%s seed %d %s: next Alloc at %#x (%v), reference %#x (%v)", cfg.Name, seed, sp.name, g, gerr, w, werr)
				}
			}
		}
	}
}
