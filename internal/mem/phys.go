package mem

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrOutOfMemory is returned when the physical frame pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical frames")

// PhysMem is a pool of physical page frames handed out in a randomized
// order, modelling an OS page allocator as seen by an unprivileged process:
// consecutive virtual pages land on effectively random physical frames, so
// the LLC set index bits above the page offset are unpredictable.
//
// PhysMem is deterministic for a given seed.
type PhysMem struct {
	// frames is the shuffled free list. Frame numbers are stored narrow
	// (machine construction is shuffle-bandwidth bound in experiment
	// sweeps); NewFrameShuffle caps pools at 2^31-1 frames (8 TiB).
	frames []uint32
	next   int    // next index into frames to hand out
	synth  uint64 // next synthetic frame for contiguous reservations
}

// FrameShuffle is the immutable shuffled free list for one (totalBytes,
// seed) pair. Every machine with the same pool size and seed computes the
// identical permutation — a quarter-million-entry Fisher–Yates for a 1 GiB
// pool, though a machine draws only a few thousand frames from it — so
// sweeps that run many same-seed trials compute it once and share it.
// PhysMem only ever reads the frame list (allocation state lives in the
// PhysMem, not here), which makes sharing safe even across goroutines.
type FrameShuffle struct {
	frames []uint32
}

// NewFrameShuffle computes the shuffled frame list for a pool of totalBytes
// (rounded down to whole pages) with the given seed. The permutation is
// identical to the one NewPhysMem has always produced.
func NewFrameShuffle(totalBytes uint64, seed int64) *FrameShuffle {
	n := totalBytes / PageSize
	if n > 1<<31-1 {
		panic(fmt.Sprintf("mem: NewFrameShuffle(%d): pool exceeds 8 TiB frame limit", totalBytes))
	}
	frames := make([]uint32, n)
	for i := range frames {
		frames[i] = uint32(i)
	}
	// Fisher–Yates exactly as math/rand.(*Rand).Shuffle draws it, without
	// its per-swap closure call. Below 2^31 elements Shuffle draws every
	// index with Lemire's int31n on the top 32 bits of Int63, which is the
	// only case the frame limit above allows.
	src := rand.NewSource(seed)
	for i := len(frames) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(uint32(src.Int63()>>31)) * uint64(n)
		if uint32(prod) < n {
			for thresh := -n % n; uint32(prod) < thresh; {
				prod = uint64(uint32(src.Int63()>>31)) * uint64(n)
			}
		}
		j := prod >> 32
		frames[i], frames[j] = frames[j], frames[i]
	}
	return &FrameShuffle{frames: frames}
}

// Frames reports the pool capacity in frames.
func (sh *FrameShuffle) Frames() int { return len(sh.frames) }

// NewPhysMemFrom creates a fresh pool over a precomputed shuffle. The
// returned PhysMem behaves exactly like NewPhysMem(totalBytes, seed) for the
// shuffle's parameters: allocation order is the shuffle order, and the
// shared frame list is never written.
func NewPhysMemFrom(sh *FrameShuffle) *PhysMem {
	return &PhysMem{frames: sh.frames, synth: uint64(len(sh.frames))}
}

// NewPhysMem creates a pool with the given total size in bytes (rounded down
// to whole pages), shuffled with the given seed.
func NewPhysMem(totalBytes uint64, seed int64) *PhysMem {
	return NewPhysMemFrom(NewFrameShuffle(totalBytes, seed))
}

// TotalFrames reports the pool capacity in frames.
func (pm *PhysMem) TotalFrames() int { return len(pm.frames) }

// FreeFrames reports how many frames remain allocatable.
func (pm *PhysMem) FreeFrames() int { return len(pm.frames) - pm.next }

// takeFrames hands out the next n randomized frames, or none at all if
// fewer than n remain. The returned slice aliases the shared frame list and
// must not be written.
func (pm *PhysMem) takeFrames(n uint64) ([]uint32, error) {
	if n > uint64(pm.FreeFrames()) {
		return nil, ErrOutOfMemory
	}
	f := pm.frames[pm.next : pm.next+int(n)]
	pm.next += int(n)
	return f, nil
}

// AllocContiguous reserves n physically contiguous frames and returns the
// first frame number. Real attackers can sometimes obtain these via huge
// pages; a few experiments use it to bypass eviction-set construction when
// congruence discovery itself is not the thing under test.
//
// The reservation is synthesized past the end of the randomized pool, which
// models a huge-page region: only the set-index bits of the resulting
// addresses matter, and they remain well-formed. Page tables store frame
// numbers in 32 bits, so a reservation that would run past frame 2^32-1
// fails and reserves nothing.
func (pm *PhysMem) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocContiguous(%d): n must be positive", n)
	}
	if uint64(n) > 1<<32-pm.synth {
		return 0, fmt.Errorf("mem: AllocContiguous(%d): frames would pass 2^32", n)
	}
	base := pm.synth
	pm.synth += uint64(n)
	return base, nil
}
