// Package scenario is the declarative experiment format: a YAML/JSON
// schema describing a complete covert-channel scenario — platform
// geometry, replacement policy, prefetcher configuration, victim program,
// channel and transport parameters, fault-scenario mix, and typed metric
// extractors with pass/fail assertions — plus a strict loader/validator
// and a deterministic marshaller.
//
// A template is one Spec. The experiment engine (internal/experiments)
// compiles a Spec into a registered-experiment-shaped task, so a template
// run is driven by exactly the code path a hand-coded experiment uses:
// the shipped templates under templates/ reproduce their hand-coded
// counterparts byte-identically for any -jobs value (the equivalence
// harness in internal/experiments proves it).
//
// The struct tags are the schema: `yaml:"key"` names each field's key and
// fixes its place in the canonical order, and omitempty marks a field the
// marshaller leaves out when it is zero. One reflective decoder and one
// reflective emitter read the tags, so adding a field takes one tag (plus
// its line in EXPERIMENTS.md, which a test enforces); range, enum and
// cross-field rules stay hand-written in validate.go.
//
// The loader is strict on purpose: unknown fields are rejected (the
// alphabetically first one is named), a present section that sets
// nothing is rejected, every error names the file and the field path that
// caused it, and a failed Parse returns no Spec at all — never a
// partially-applied one.
package scenario

import (
	"leakyway/internal/channel"
	"leakyway/internal/fault"
	"leakyway/internal/hier"
	"leakyway/internal/platform"
	"leakyway/internal/policy"
)

// Spec is one declarative scenario. ID, Title, Paper and Kind are
// required; exactly the section matching Kind must be present. The
// optional Platform/Channel/Transport sections override the per-platform
// calibrated defaults; Extract and Assert add post-run metric extraction
// and pass/fail checks (template mode only — they never change the run).
type Spec struct {
	// ID keys the scenario: it names the report section, prefixes every
	// trace stream, and — critically — feeds the SplitSeed derivation,
	// so a template with the same ID as a hand-coded experiment runs
	// with identical randomness.
	ID string `yaml:"id"`
	// Title is the one-line banner ("Figure 8 — channel capacity ...").
	Title string `yaml:"title"`
	// Paper summarizes what the source paper reports for this artifact.
	Paper string `yaml:"paper,omitempty"`
	// Kind selects the interpreter: statewalk, pipeline, sweep, lanes,
	// noise, faults or victim.
	Kind string `yaml:"kind"`

	// Platform, when present, replaces the context platforms with one
	// custom configuration (base platform + geometry/policy/prefetcher
	// overrides). Absent, the scenario runs on the context's platforms
	// (both paper machines by default, or the CLI -platform selection).
	Platform *PlatformSpec `yaml:"platform,omitempty"`
	// Channel overrides fields of the per-platform DefaultConfig.
	Channel *ChannelSpec `yaml:"channel,omitempty"`
	// Transport overrides fields of the per-platform
	// DefaultTransportConfig (faults kind only).
	Transport *TransportSpec `yaml:"transport,omitempty"`

	// Exactly one of the following sections is set, per Kind.
	StateWalk *StateWalkSpec `yaml:"statewalk,omitempty"`
	Pipeline  *PipelineSpec  `yaml:"pipeline,omitempty"`
	Sweep     *SweepSpec     `yaml:"sweep,omitempty"`
	Lanes     *LanesSpec     `yaml:"lanes,omitempty"`
	Noise     *NoiseSpec     `yaml:"noise,omitempty"`
	Faults    *FaultsSpec    `yaml:"faults,omitempty"`
	Victim    *VictimSpec    `yaml:"victim,omitempty"`

	// Extract defines named typed extractors over the run's report text
	// and metrics; Assert defines pass/fail checks over metrics and
	// extracted values.
	Extract []Extractor `yaml:"extract,omitempty"`
	Assert  []Assertion `yaml:"assert,omitempty"`
}

// Kind names.
const (
	KindStateWalk = "statewalk"
	KindPipeline  = "pipeline"
	KindSweep     = "sweep"
	KindLanes     = "lanes"
	KindNoise     = "noise"
	KindFaults    = "faults"
	KindVictim    = "victim"
)

// Kinds lists the valid Kind values.
func Kinds() []string {
	return []string{KindStateWalk, KindPipeline, KindSweep, KindLanes, KindNoise, KindFaults, KindVictim}
}

// PlatformSpec derives a custom platform from a named base. Zero-valued
// geometry fields inherit the base; pointer fields distinguish "absent"
// from an explicit false/zero.
type PlatformSpec struct {
	// Base is "skylake" (default) or "kabylake".
	Base string `yaml:"base,omitempty"`
	// Name relabels the platform in output.
	Name string `yaml:"name,omitempty"`
	// Geometry overrides (0 = inherit base).
	Cores           int     `yaml:"cores,omitempty"`
	FreqGHz         float64 `yaml:"freq_ghz,omitempty"`
	L1Sets          int     `yaml:"l1_sets,omitempty"`
	L1Ways          int     `yaml:"l1_ways,omitempty"`
	L2Sets          int     `yaml:"l2_sets,omitempty"`
	L2Ways          int     `yaml:"l2_ways,omitempty"`
	LLCSlices       int     `yaml:"llc_slices,omitempty"`
	LLCSetsPerSlice int     `yaml:"llc_sets_per_slice,omitempty"`
	LLCWays         int     `yaml:"llc_ways,omitempty"`
	// LLCPolicy selects the last-level replacement policy: quadage
	// (stock), quadage-countermeasure, lru, bit-plru, tree-plru, srrip
	// or random. Empty inherits the base (stock QuadAge).
	LLCPolicy string `yaml:"llc_policy,omitempty"`
	// Prefetcher switches (absent = inherit base, which is off).
	AdjacentLine   *bool `yaml:"adjacent_line,omitempty"`
	StreamPrefetch *bool `yaml:"stream_prefetch,omitempty"`
	// NonInclusive switches the LLC to the server-part organization.
	NonInclusive *bool `yaml:"non_inclusive,omitempty"`
	// LLCPartitionWays enables the way-partitioning defense.
	LLCPartitionWays *int `yaml:"llc_partition_ways,omitempty"`
}

// LLCPolicies lists the valid LLCPolicy values.
func LLCPolicies() []string {
	return []string{"quadage", "quadage-countermeasure", "lru", "bit-plru", "tree-plru", "srrip", "random"}
}

// Config resolves the spec into a concrete platform configuration.
// Validate has already checked Base and LLCPolicy, so Config panics on an
// unvalidated spec rather than failing silently.
func (p *PlatformSpec) Config() hier.Config {
	base := p.Base
	if base == "" {
		base = "skylake"
	}
	cfg, ok := platform.ByName(base)
	if !ok {
		panic("scenario: unvalidated platform base " + base)
	}
	if p.Name != "" {
		cfg.Name = p.Name
	}
	if p.Cores > 0 {
		cfg.Cores = p.Cores
	}
	if p.FreqGHz > 0 {
		cfg.FreqGHz = p.FreqGHz
	}
	setIf := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	setIf(&cfg.L1Sets, p.L1Sets)
	setIf(&cfg.L1Ways, p.L1Ways)
	setIf(&cfg.L2Sets, p.L2Sets)
	setIf(&cfg.L2Ways, p.L2Ways)
	setIf(&cfg.LLCSlices, p.LLCSlices)
	setIf(&cfg.LLCSetsPerSlice, p.LLCSetsPerSlice)
	setIf(&cfg.LLCWays, p.LLCWays)
	if p.LLCPolicy != "" {
		cfg.LLCPolicy = llcPolicy(p.LLCPolicy)
	}
	if p.AdjacentLine != nil {
		cfg.HWPrefetch.AdjacentLine = *p.AdjacentLine
	}
	if p.StreamPrefetch != nil {
		cfg.HWPrefetch.Stream = *p.StreamPrefetch
	}
	if p.NonInclusive != nil {
		cfg.NonInclusive = *p.NonInclusive
	}
	if p.LLCPartitionWays != nil {
		cfg.LLCPartitionWays = *p.LLCPartitionWays
	}
	return cfg
}

func llcPolicy(name string) policy.Policy {
	switch name {
	case "quadage":
		return policy.NewQuadAge()
	case "quadage-countermeasure":
		return policy.NewQuadAgeCountermeasure()
	case "lru":
		return policy.NewLRU()
	case "bit-plru":
		return policy.NewBitPLRU()
	case "tree-plru":
		return policy.NewTreePLRU()
	case "srrip":
		return policy.NewSRRIP()
	case "random":
		return policy.NewRandom(0)
	}
	panic("scenario: unvalidated llc_policy " + name)
}

// ChannelSpec holds sparse overrides over the per-platform calibrated
// channel.DefaultConfig. Every field is a pointer so an explicit zero
// (e.g. noise_period: 0, meaning "no background noise daemon") is
// distinguishable from "inherit the default".
type ChannelSpec struct {
	Interval         *int64 `yaml:"interval,omitempty"`
	Sets             *int   `yaml:"sets,omitempty"`
	SenderOffset     *int64 `yaml:"sender_offset,omitempty"`
	ReceiverOffset   *int64 `yaml:"receiver_offset,omitempty"`
	ProtocolOverhead *int64 `yaml:"protocol_overhead,omitempty"`
	Start            *int64 `yaml:"start,omitempty"`
	NoisePeriod      *int64 `yaml:"noise_period,omitempty"`
	PrimeWalks       *int   `yaml:"prime_walks,omitempty"`
}

// Apply overlays the overrides on base. A nil spec returns base as-is.
func (c *ChannelSpec) Apply(base channel.Config) channel.Config {
	if c == nil {
		return base
	}
	if c.Interval != nil {
		base.Interval = *c.Interval
	}
	if c.Sets != nil {
		base.Sets = *c.Sets
	}
	if c.SenderOffset != nil {
		base.SenderOffset = *c.SenderOffset
	}
	if c.ReceiverOffset != nil {
		base.ReceiverOffset = *c.ReceiverOffset
	}
	if c.ProtocolOverhead != nil {
		base.ProtocolOverhead = *c.ProtocolOverhead
	}
	if c.Start != nil {
		base.Start = *c.Start
	}
	if c.NoisePeriod != nil {
		base.NoisePeriod = *c.NoisePeriod
	}
	if c.PrimeWalks != nil {
		base.PrimeWalks = *c.PrimeWalks
	}
	return base
}

// TransportSpec holds sparse overrides over the per-platform
// channel.DefaultTransportConfig.
type TransportSpec struct {
	Channel      *ChannelSpec `yaml:"channel,omitempty"`
	MaxRetries   *int         `yaml:"max_retries,omitempty"`
	FERWindow    *int         `yaml:"fer_window,omitempty"`
	FERThreshold *float64     `yaml:"fer_threshold,omitempty"`
}

// Apply overlays the overrides on base. A nil spec returns base as-is.
func (t *TransportSpec) Apply(base channel.TransportConfig) channel.TransportConfig {
	if t == nil {
		return base
	}
	base.Channel = t.Channel.Apply(base.Channel)
	if t.MaxRetries != nil {
		base.MaxRetries = *t.MaxRetries
	}
	if t.FERWindow != nil {
		base.FERWindow = *t.FERWindow
	}
	if t.FERThreshold != nil {
		base.FERThreshold = *t.FERThreshold
	}
	return base
}

// StateWalkSpec renders a Figure 6-style LLC set state walk: the sender
// transmits Message one bit per phase pair, the receiver reads each bit
// with a timed prefetch, and every step snapshots the set.
type StateWalkSpec struct {
	// Message is the bit string to walk through ("10").
	Message string `yaml:"message"`
	// CalibrateSamples sizes the receiver's threshold calibration.
	CalibrateSamples int `yaml:"calibrate_samples"`
	// ReceiverReady is the cycle by which the receiver has prepared the
	// channel; PhaseStep is the spacing between send and read phases.
	ReceiverReady int64 `yaml:"receiver_ready"`
	PhaseStep     int64 `yaml:"phase_step"`
}

// PipelineSpec demonstrates the two-set pipelined NTP+NTP schedule
// (Figure 7) on Message.
type PipelineSpec struct {
	Message string `yaml:"message"`
}

// SweepSpec measures capacity and BER across transmission intervals
// (Figure 8) for one or more channels on every platform.
type SweepSpec struct {
	// Bits per transmission (quick mode scales it down).
	Bits int `yaml:"bits"`
	// Channels are swept in order; with exactly two, the report adds the
	// peak-vs-peak comparison line.
	Channels []SweepChannel `yaml:"channels"`
}

// SweepChannel is one swept channel: a registry key plus its interval
// grid.
type SweepChannel struct {
	// Channel is "ntpntp" or "primeprobe"; it keys the seed derivation,
	// the trace-stream labels and the "<platform>/<channel>_peak_kbps"
	// metrics.
	Channel string `yaml:"channel"`
	// Intervals is the cycle grid to sweep.
	Intervals []int64 `yaml:"intervals"`
}

// SweepChannels lists the valid SweepChannel.Channel values.
func SweepChannels() []string { return []string{"ntpntp", "primeprobe"} }

// LanesSpec measures multi-lane NTP+NTP bandwidth scaling: each lane
// count runs at intervals LaneCost*lanes + overhead + offset and the best
// offset wins.
type LanesSpec struct {
	Bits int `yaml:"bits"`
	// LaneCounts are the lane widths to measure; each lane occupies two
	// LLC sets, so 2*max(LaneCounts) must fit the LLC sets per slice.
	LaneCounts []int `yaml:"lane_counts"`
	// Offsets are interval paddings swept around the expected knee.
	Offsets []int64 `yaml:"offsets"`
	// LaneCost is the per-lane receiver probe budget in cycles.
	LaneCost int64 `yaml:"lane_cost"`
}

// NoiseSpec measures raw and interleaved-Hamming(7,4) reliability across
// co-tenant noise intensities.
type NoiseSpec struct {
	Bits int `yaml:"bits"`
	// Periods are noise-daemon fill periods in cycles (0 = quiet).
	Periods []int64 `yaml:"periods"`
	// InterleaveDepth is the Hamming(7,4) block-interleave depth.
	InterleaveDepth int `yaml:"interleave_depth"`
}

// FaultsSpec runs every fault scenario against the raw channel, an
// interleaved-Hamming encoding and the ARQ transport.
type FaultsSpec struct {
	// RawBits per raw/Hamming transmission (quick mode scales it down);
	// ARQBits is the ARQ payload length (fixed, not scaled).
	RawBits int `yaml:"raw_bits"`
	ARQBits int `yaml:"arq_bits"`
	// InterleaveDepth is the Hamming(7,4) block-interleave depth.
	InterleaveDepth int `yaml:"interleave_depth"`
	// Scenarios is the injection menu; an empty Faults list means "no
	// injection" (the baseline row).
	Scenarios []FaultScenario `yaml:"scenarios"`
}

// FaultScenario is one line of the injection menu: a key (used for seed
// derivation, trace labels and metric names) plus the faults to compose.
type FaultScenario struct {
	Key    string      `yaml:"key"`
	Faults []FaultSpec `yaml:"faults,omitempty"`
}

// Compile builds the composable fault scenario: nil for none, the bare
// scenario for one, a deterministic composite for several — exactly the
// shapes the hand-coded experiments build, so seed derivations match.
func (s FaultScenario) Compile() fault.Scenario {
	switch len(s.Faults) {
	case 0:
		return nil
	case 1:
		return s.Faults[0].Compile()
	}
	parts := make([]fault.Scenario, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.Compile()
	}
	return fault.Compose(parts...)
}

// FaultSpec is one composable fault. Type selects the scenario; only the
// fields that scenario uses may be set (the validator rejects the rest).
type FaultSpec struct {
	// Type is preemption, pollution, clock-drift, timer-spikes or
	// migration.
	Type string `yaml:"type"`
	// Role targets "sender" or "receiver" (default receiver) for the
	// per-agent types.
	Role string `yaml:"role,omitempty"`
	// Preemption: Count windows of duration uniform in [MinDur, MaxDur].
	Count  int   `yaml:"count,omitempty"`
	MinDur int64 `yaml:"min_dur,omitempty"`
	MaxDur int64 `yaml:"max_dur,omitempty"`
	// Pollution: Bursts × Walks walks with Gap idle cycles per load.
	Bursts int   `yaml:"bursts,omitempty"`
	Walks  int   `yaml:"walks,omitempty"`
	Gap    int64 `yaml:"gap,omitempty"`
	// Clock-drift: PPM parts per million.
	PPM int64 `yaml:"ppm,omitempty"`
	// Timer-spikes: Count windows of Dur cycles adding up to Extra.
	Dur   int64 `yaml:"dur,omitempty"`
	Extra int64 `yaml:"extra,omitempty"`
	// Migration: rescheduling stall in cycles.
	Cost int64 `yaml:"cost,omitempty"`
}

// FaultTypes lists the valid FaultSpec.Type values.
func FaultTypes() []string {
	return []string{"preemption", "pollution", "clock-drift", "timer-spikes", "migration"}
}

func faultRole(role string) string {
	if role == "sender" {
		return fault.RoleSender
	}
	return ""
}

// Compile builds the concrete fault scenario. Validate has already
// checked Type, so Compile panics on an unvalidated spec.
func (f FaultSpec) Compile() fault.Scenario {
	switch f.Type {
	case "preemption":
		return fault.Preemption{Role: faultRole(f.Role), Count: f.Count, MinDur: f.MinDur, MaxDur: f.MaxDur}
	case "pollution":
		return fault.Pollution{Bursts: f.Bursts, Walks: f.Walks, Gap: f.Gap}
	case "clock-drift":
		return fault.ClockDrift{Role: faultRole(f.Role), PPM: f.PPM}
	case "timer-spikes":
		return fault.TimerSpikes{Role: faultRole(f.Role), Count: f.Count, Dur: f.Dur, Extra: f.Extra}
	case "migration":
		return fault.Migration{Role: faultRole(f.Role), Cost: f.Cost}
	}
	panic("scenario: unvalidated fault type " + f.Type)
}

// VictimSpec runs a victim program under a spy — no Go code needed to
// express an end-to-end key-recovery scenario.
type VictimSpec struct {
	// Program selects the victim: "aes" (T-table AES under a
	// Flush+Reload T-table spy, first-round elimination analysis).
	Program string `yaml:"program"`
	// Key is the victim's 16-byte AES key as 32 hex characters.
	Key string `yaml:"key"`
	// Encryptions the spy observes.
	Encryptions int `yaml:"encryptions"`
	// Window is the victim's per-encryption cycle budget; Start the
	// cycle of the first encryption.
	Window int64 `yaml:"window"`
	Start  int64 `yaml:"start"`
}

// VictimPrograms lists the valid VictimSpec.Program values.
func VictimPrograms() []string { return []string{"aes"} }
