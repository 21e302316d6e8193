package mem

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPhysMemUniqueFrames(t *testing.T) {
	pm := NewPhysMem(1<<20, 1) // 256 frames
	frames, err := pm.takeFrames(uint64(pm.TotalFrames()))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	for _, f := range frames {
		if seen[f] {
			t.Fatalf("frame %d handed out twice", f)
		}
		if int(f) >= pm.TotalFrames() {
			t.Fatalf("frame %d out of range", f)
		}
		seen[f] = true
	}
	if _, err := pm.takeFrames(1); err != ErrOutOfMemory {
		t.Fatalf("exhausted pool: err = %v, want ErrOutOfMemory", err)
	}
}

func TestPhysMemDeterministic(t *testing.T) {
	a := NewPhysMem(1<<20, 42)
	b := NewPhysMem(1<<20, 42)
	for i := 0; i < 100; i++ {
		fa, _ := a.takeFrames(1)
		fb, _ := b.takeFrames(1)
		if fa[0] != fb[0] {
			t.Fatalf("allocation %d diverged: %d vs %d", i, fa[0], fb[0])
		}
	}
}

func TestPhysMemShuffled(t *testing.T) {
	pm := NewPhysMem(1<<22, 7)
	frames, _ := pm.takeFrames(64)
	ascending := true
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[i-1]+1 {
			ascending = false
		}
	}
	if ascending {
		t.Fatal("frame sequence is perfectly ascending; allocator is not randomized")
	}
}

func TestAllocContiguous(t *testing.T) {
	pm := NewPhysMem(1<<20, 3)
	base, err := pm.AllocContiguous(8)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous reservations must not collide with the randomized pool.
	if base < uint64(pm.TotalFrames()) {
		t.Fatalf("contiguous base %d overlaps randomized pool of %d frames", base, pm.TotalFrames())
	}
	next, err := pm.AllocContiguous(4)
	if err != nil {
		t.Fatal(err)
	}
	if next < base+8 {
		t.Fatalf("second reservation %d overlaps first [%d,%d)", next, base, base+8)
	}
	if _, err := pm.AllocContiguous(0); err == nil {
		t.Fatal("AllocContiguous(0) should fail")
	}
}

// TestFrameShuffleMatchesRandShuffle: the inlined Fisher–Yates must produce
// math/rand's Shuffle permutation element for element, for the pool sizes
// machines use and the seeds sim derives (seed^0x9e3779b9).
func TestFrameShuffleMatchesRandShuffle(t *testing.T) {
	sizes := []uint64{0, PageSize, 2 * PageSize, 1 << 20, 1 << 30, 2 << 30}
	seeds := []int64{-7, 0, 1, 42 ^ 0x9e3779b9, 7 ^ 0x9e3779b9}
	for _, size := range sizes {
		for _, seed := range seeds {
			want := make([]uint32, size/PageSize)
			for i := range want {
				want[i] = uint32(i)
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(want), func(i, j int) {
				want[i], want[j] = want[j], want[i]
			})
			if got := NewFrameShuffle(size, seed).frames; !slices.Equal(got, want) {
				t.Fatalf("NewFrameShuffle(%d, %d) diverges from rand.Shuffle", size, seed)
			}
		}
	}
}

// BenchmarkFrameShuffle measures shuffling a machine's 1 GiB frame pool.
func BenchmarkFrameShuffle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewFrameShuffle(1<<30, int64(i))
	}
}
