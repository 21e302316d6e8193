package core

import (
	"leakyway/internal/mem"
	"leakyway/internal/sim"
)

// ListingOneIndices reproduces the Prime+Scope preparation pattern of
// Listing 1 in the paper (the Skylake variant): 192 cache references over a
// 16-line eviction set whose entry 0 is the scope line. The interleaved
// double-touches of evset[0] keep the scope line resident in the private
// cache while the set is primed; the repeated rounds give every other line
// an LLC touch so its age is refreshed.
func ListingOneIndices() []int {
	var seq []int
	for i := 0; i < 3; i++ {
		for j := 0; j < 13; j += 4 {
			seq = append(seq,
				j+0, j+1, 0, 0, j+2, 0, 0, j+3,
				j+0, j+1, j+2, j+3,
				j+0, j+1, j+2, j+3,
			)
		}
	}
	return seq
}

// PrimeScopePrepare executes the Listing 1 pattern: evset must hold 16
// LLC-congruent lines with the scope line at index 0. It returns the number
// of cache references issued (192).
func PrimeScopePrepare(c *sim.Core, evset []mem.VAddr) int {
	seq := ListingOneIndices()
	for _, idx := range seq {
		c.Load(evset[idx])
	}
	return len(seq)
}

// PrimePrefetchScopePrepare executes the Listing 2 pattern: prime the
// non-scope lines (evset[1:]) rounds times with demand loads, then install
// the scope line (evset[0]) with PREFETCHNTA — simultaneously placing it in
// L1 and making it the LLC eviction candidate. The paper uses rounds=2. It
// returns the number of cache references issued.
func PrimePrefetchScopePrepare(c *sim.Core, evset []mem.VAddr, rounds int) int {
	if rounds <= 0 {
		rounds = 2
	}
	refs := 0
	for r := 0; r < rounds; r++ {
		for _, va := range evset[1:] {
			c.Load(va)
			refs++
		}
	}
	c.PrefetchNTA(evset[0])
	refs++
	return refs
}

// RotateView writes the priming order of iteration it into view, which has
// len(evset): the scope line evset[0] stays at index 0 and the other lines
// rotate by it, so each takes every position once per len(evset)-1
// iterations. A fixed order lets the L1 keep the same subset of the set
// across a whole attack, whose LLC ages then saturate and absorb the
// evictions meant for the victim's line.
func RotateView(view, evset []mem.VAddr, it int) {
	view[0] = evset[0]
	for i := 1; i < len(evset); i++ {
		view[i] = evset[1+(i-1+it)%(len(evset)-1)]
	}
}
