// Package hier composes generic caches into the Intel client hierarchy the
// paper targets: per-core private L1 and non-inclusive L2, plus a shared,
// sliced, inclusive LLC running quad-age pseudo-LRU. It implements the
// memory operations the attacks are written in terms of — demand loads and
// stores, PREFETCHNTA, PREFETCHT0, and CLFLUSH — with per-level latencies,
// in-flight fill windows, back-invalidation, and optional hardware
// prefetchers.
package hier

import (
	"fmt"

	"leakyway/internal/policy"
)

// MaxCores is the largest supported core count: each LLC line tracks the
// cores that may hold a private copy in a 64-bit core-valid mask.
const MaxCores = 64

// Config describes one simulated processor.
type Config struct {
	// Name labels the platform in output ("Skylake (i7-6700)").
	Name string
	// Cores is the number of physical cores (each with private L1/L2),
	// at most MaxCores.
	Cores int
	// FreqGHz converts cycles to wall-clock time for bandwidth numbers.
	FreqGHz float64

	// L1 geometry (per core).
	L1Sets, L1Ways int
	// L2 geometry (per core).
	L2Sets, L2Ways int
	// LLC geometry: Slices × LLCSetsPerSlice sets, LLCWays ways.
	LLCSlices, LLCSetsPerSlice, LLCWays int

	// Replacement policies. Nil fields default to Tree-PLRU (L1),
	// Bit-PLRU (L2) and stock QuadAge (LLC).
	L1Policy, L2Policy, LLCPolicy policy.Policy

	// Lat is the latency model.
	Lat LatencyConfig

	// HWPrefetch enables the adjacent-line and stream prefetchers.
	HWPrefetch HWPrefetchConfig

	// NonInclusive switches the LLC to a non-inclusive organization, as
	// on Intel server parts (Section VI-B of the paper): PREFETCHNTA
	// brings data only into the requesting core's L1, and LLC evictions
	// no longer back-invalidate private caches. The paper's attacks
	// "cannot directly work" on such parts; the experiment suite
	// demonstrates exactly that.
	NonInclusive bool

	// DirectoryWays, when positive on a non-inclusive configuration, adds
	// a sliced coherence directory with that associativity (sets follow
	// the LLC geometry). Directory evictions back-invalidate private
	// copies.
	DirectoryWays int
	// DirectoryNTAIsVictim enables the paper's Section VI-B conjecture:
	// PREFETCHNTA entries are installed in the directory as the eviction
	// candidate, enabling a directory version of NTP+NTP.
	DirectoryNTAIsVictim bool

	// LLCPartitionWays, when positive, way-partitions the LLC as an
	// isolation defense: core c may only fill (and therefore evict) ways
	// [c*N, (c+1)*N). Cores can still *hit* any way, so shared read-only
	// data keeps working, but cross-core eviction — the primitive behind
	// every conflict-based attack in the paper — becomes impossible.
	LLCPartitionWays int

	// Seed drives latency jitter (and nothing else in this package).
	Seed int64
}

// HWPrefetchConfig controls the hardware prefetchers. Both default off,
// matching the paper's reverse-engineering methodology; attack experiments
// can switch them on since their access patterns avoid triggering them.
type HWPrefetchConfig struct {
	// AdjacentLine pairs each miss with a prefetch of its 128-byte buddy.
	AdjacentLine bool
	// Stream detects ascending unit-stride line streams within a page and
	// runs ahead of them.
	Stream bool
	// StreamDepth is how many lines ahead the stream prefetcher issues.
	StreamDepth int
}

// Validate checks structural invariants before building a hierarchy.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("hier: Cores must be positive, got %d", c.Cores)
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("hier: Cores=%d exceeds the %d-core sharer-mask limit", c.Cores, MaxCores)
	}
	for _, g := range []struct {
		name string
		v    int
	}{
		{"L1Sets", c.L1Sets}, {"L1Ways", c.L1Ways},
		{"L2Sets", c.L2Sets}, {"L2Ways", c.L2Ways},
		{"LLCSlices", c.LLCSlices}, {"LLCSetsPerSlice", c.LLCSetsPerSlice}, {"LLCWays", c.LLCWays},
	} {
		if g.v <= 0 {
			return fmt.Errorf("hier: %s must be positive, got %d", g.name, g.v)
		}
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("hier: FreqGHz must be positive, got %g", c.FreqGHz)
	}
	if c.DirectoryWays < 0 {
		return fmt.Errorf("hier: DirectoryWays must be non-negative, got %d", c.DirectoryWays)
	}
	if c.DirectoryWays > 0 && !c.NonInclusive {
		return fmt.Errorf("hier: a coherence directory requires NonInclusive mode")
	}
	if c.LLCPartitionWays < 0 {
		return fmt.Errorf("hier: LLCPartitionWays must be non-negative, got %d", c.LLCPartitionWays)
	}
	if c.LLCPartitionWays > 0 && c.LLCPartitionWays*c.Cores > c.LLCWays {
		return fmt.Errorf("hier: partition of %d ways x %d cores exceeds %d LLC ways",
			c.LLCPartitionWays, c.Cores, c.LLCWays)
	}
	return nil
}

// withDefaults fills in the default policies.
func (c Config) withDefaults() Config {
	if c.L1Policy == nil {
		c.L1Policy = policy.NewTreePLRU()
	}
	if c.L2Policy == nil {
		c.L2Policy = policy.NewBitPLRU()
	}
	if c.LLCPolicy == nil {
		c.LLCPolicy = policy.NewQuadAge()
	}
	if c.HWPrefetch.StreamDepth == 0 {
		c.HWPrefetch.StreamDepth = 2
	}
	return c
}
