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
// its line in EXPERIMENTS.md, which a test enforces). Each enum is one
// table: a kind is a Spec field whose type implements section, and LLC
// policies, fault types and sweep channels are table rows. Overrides map
// onto their target configurations by field name (overlay).
//
// The loader is strict on purpose: unknown fields are rejected (the
// alphabetically first one is named), a present section that sets
// nothing is rejected, every error names the file and the field path that
// caused it, and a failed Parse returns no Spec at all — never a
// partially-applied one.
package scenario

import (
	"reflect"

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
	// Kind selects the interpreter and names the one kind section below
	// that must be present (Kinds lists them).
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

	// The kind sections: exactly the one Kind names is set.
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

// section is a kind section. Every Spec field whose type implements it is
// one kind, named by the field's key; platforms are the configurations
// the scenario targets.
type section interface {
	validate(v *validator, path string, platforms []hier.Config)
}

// kinds lists Spec's kind sections in declaration order; it is filled
// with the schema at start-up.
var kinds []field

// Kinds lists the valid Kind values, in declaration order.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.key
	}
	return out
}

// kindOf names the kind whose section has sec's type.
func kindOf(sec section) string {
	t := reflect.TypeOf(sec)
	for _, k := range kinds {
		if reflect.TypeOf(Spec{}).Field(k.index).Type == t {
			return k.key
		}
	}
	panic("scenario: " + t.String() + " is not a kind section")
}

// table is one enum: per row, the name a template spells and the value
// it selects, in documentation order.
type table[T any] []struct {
	name string
	val  T
}

func (t table[T]) names() []string {
	out := make([]string, len(t))
	for i, e := range t {
		out[i] = e.name
	}
	return out
}

func (t table[T]) lookup(name string) (val T, ok bool) {
	for _, e := range t {
		if e.name == name {
			return e.val, true
		}
	}
	return val, false
}

// must looks up a name Validate has already checked, so a miss is a bug.
func (t table[T]) must(name string) T {
	v, ok := t.lookup(name)
	if !ok {
		panic("scenario: unvalidated enum value " + name)
	}
	return v
}

// overlay sets every field the override struct src sets onto the
// same-named field of dst: a pointer field when non-nil (a pointer to a
// nested override struct recurses into it), a plain field when positive
// or, for a string, non-empty. Validation resolves overrides before it
// rejects negative values, so a negative plain field inherits. A field
// with no same-named, same-typed target is the caller's to map.
func overlay(dst, src reflect.Value) {
	for i := 0; i < src.NumField(); i++ {
		tf, ok := dst.Type().FieldByName(src.Type().Field(i).Name)
		if !ok {
			continue
		}
		d, f := dst.FieldByIndex(tf.Index), src.Field(i)
		if f.Kind() == reflect.Pointer {
			if f.IsNil() {
				continue
			}
			if f = f.Elem(); f.Kind() == reflect.Struct {
				overlay(d, f)
				continue
			}
		} else if f.IsZero() || f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			continue
		}
		if f.Type() == d.Type() {
			d.Set(f)
		}
	}
}

// applyTo returns base with spec's overrides overlaid; a nil spec
// returns base as-is.
func applyTo[C, S any](base C, spec *S) C {
	if spec != nil {
		overlay(reflect.ValueOf(&base).Elem(), reflect.ValueOf(spec).Elem())
	}
	return base
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
	// LLCPolicy selects the last-level replacement policy by its
	// llcPolicies name. Empty inherits the base (stock QuadAge).
	LLCPolicy string `yaml:"llc_policy,omitempty"`
	// Prefetcher switches (absent = inherit base, which is off).
	AdjacentLine   *bool `yaml:"adjacent_line,omitempty"`
	StreamPrefetch *bool `yaml:"stream_prefetch,omitempty"`
	// NonInclusive switches the LLC to the server-part organization.
	NonInclusive *bool `yaml:"non_inclusive,omitempty"`
	// LLCPartitionWays enables the way-partitioning defense.
	LLCPartitionWays *int `yaml:"llc_partition_ways,omitempty"`
}

// llcPolicies is the llc_policy enum: each name and the constructor of
// the policy it selects.
var llcPolicies = table[func() policy.Policy]{
	{"quadage", func() policy.Policy { return policy.NewQuadAge() }},
	{"quadage-countermeasure", func() policy.Policy { return policy.NewQuadAgeCountermeasure() }},
	{"lru", func() policy.Policy { return policy.NewLRU() }},
	{"bit-plru", func() policy.Policy { return policy.NewBitPLRU() }},
	{"tree-plru", func() policy.Policy { return policy.NewTreePLRU() }},
	{"srrip", func() policy.Policy { return policy.NewSRRIP() }},
	{"random", func() policy.Policy { return policy.NewRandom(0) }},
}

// LLCPolicies lists the valid LLCPolicy values.
func LLCPolicies() []string { return llcPolicies.names() }

// Config resolves the spec into a concrete platform configuration: the
// base platform with every set field overlaid by name, plus the policy
// and prefetcher switches, which have no same-named target. Validate has
// already checked Base and LLCPolicy, so Config panics on an unvalidated
// spec rather than failing silently.
func (p *PlatformSpec) Config() hier.Config {
	cfg, ok := platform.ByName(baseOf(p.Base))
	if !ok {
		panic("scenario: unvalidated platform base " + p.Base)
	}
	cfg = applyTo(cfg, p)
	if p.LLCPolicy != "" {
		cfg.LLCPolicy = llcPolicies.must(p.LLCPolicy)()
	}
	if p.AdjacentLine != nil {
		cfg.HWPrefetch.AdjacentLine = *p.AdjacentLine
	}
	if p.StreamPrefetch != nil {
		cfg.HWPrefetch.Stream = *p.StreamPrefetch
	}
	return cfg
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
func (c *ChannelSpec) Apply(base channel.Config) channel.Config { return applyTo(base, c) }

// TransportSpec holds sparse overrides over the per-platform
// channel.DefaultTransportConfig.
type TransportSpec struct {
	Channel      *ChannelSpec `yaml:"channel,omitempty"`
	MaxRetries   *int         `yaml:"max_retries,omitempty"`
	FERWindow    *int         `yaml:"fer_window,omitempty"`
	FERThreshold *float64     `yaml:"fer_threshold,omitempty"`
}

// Apply overlays the overrides on base, the nested channel block on
// base.Channel. A nil spec returns base as-is.
func (t *TransportSpec) Apply(base channel.TransportConfig) channel.TransportConfig {
	return applyTo(base, t)
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
	// Channel names a sweepChannels row; it keys the seed derivation,
	// the trace-stream labels and the "<platform>/<channel>_peak_kbps"
	// metrics.
	Channel string `yaml:"channel"`
	// Intervals is the cycle grid to sweep.
	Intervals []int64 `yaml:"intervals"`
}

// sweepChannels is the sweep channel enum: each name and the channel it
// runs.
var sweepChannels = table[channel.Runner]{
	{"ntpntp", channel.RunNTPNTP},
	{"primeprobe", channel.RunPrimeProbe},
}

// SweepChannels lists the valid SweepChannel.Channel values.
func SweepChannels() []string { return sweepChannels.names() }

// Runner returns the channel a validated SweepChannel names.
func (c SweepChannel) Runner() channel.Runner { return sweepChannels.must(c.Channel) }

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
	// Type names a faultTypes row.
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

// faultType is one fault type: the FaultSpec keys besides type that it
// uses (setting any other is an error, so a typo'd scenario cannot
// silently no-op), its range checks, and the scenario it compiles to.
type faultType struct {
	fields  []string
	check   func(f FaultSpec, v *validator, path string)
	compile func(f FaultSpec) fault.Scenario
}

// faultTypes is the fault type enum.
var faultTypes = table[faultType]{
	{"preemption", faultType{
		fields: []string{"role", "count", "min_dur", "max_dur"},
		check: func(f FaultSpec, v *validator, path string) {
			mustBePositive(v, joinPath(path, "count"), f.Count)
			if f.MinDur < 0 || f.MaxDur < f.MinDur {
				v.fail(joinPath(path, "min_dur"), "need 0 <= min_dur <= max_dur, got [%d, %d]", f.MinDur, f.MaxDur)
			}
		},
		compile: func(f FaultSpec) fault.Scenario {
			return fault.Preemption{Role: faultRole(f.Role), Count: f.Count, MinDur: f.MinDur, MaxDur: f.MaxDur}
		},
	}},
	{"pollution", faultType{
		fields:  []string{"bursts", "walks", "gap"},
		check:   func(f FaultSpec, v *validator, path string) { mustBePositive(v, joinPath(path, "bursts"), f.Bursts) },
		compile: func(f FaultSpec) fault.Scenario { return fault.Pollution{Bursts: f.Bursts, Walks: f.Walks, Gap: f.Gap} },
	}},
	{"clock-drift", faultType{
		fields: []string{"role", "ppm"},
		check: func(f FaultSpec, v *validator, path string) {
			if f.PPM == 0 {
				v.fail(joinPath(path, "ppm"), "must be non-zero")
			}
		},
		compile: func(f FaultSpec) fault.Scenario { return fault.ClockDrift{Role: faultRole(f.Role), PPM: f.PPM} },
	}},
	{"timer-spikes", faultType{
		fields: []string{"role", "count", "dur", "extra"},
		check: func(f FaultSpec, v *validator, path string) {
			mustBePositive(v, joinPath(path, "count"), f.Count)
			mustBePositive(v, joinPath(path, "dur"), f.Dur)
		},
		compile: func(f FaultSpec) fault.Scenario {
			return fault.TimerSpikes{Role: faultRole(f.Role), Count: f.Count, Dur: f.Dur, Extra: f.Extra}
		},
	}},
	{"migration", faultType{
		fields:  []string{"role", "cost"},
		check:   func(f FaultSpec, v *validator, path string) { mustBePositive(v, joinPath(path, "cost"), f.Cost) },
		compile: func(f FaultSpec) fault.Scenario { return fault.Migration{Role: faultRole(f.Role), Cost: f.Cost} },
	}},
}

// FaultTypes lists the valid FaultSpec.Type values.
func FaultTypes() []string { return faultTypes.names() }

func faultRole(role string) string {
	if role == "sender" {
		return fault.RoleSender
	}
	return ""
}

// Compile builds the concrete fault scenario. Validate has already
// checked Type, so Compile panics on an unvalidated spec.
func (f FaultSpec) Compile() fault.Scenario { return faultTypes.must(f.Type).compile(f) }

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
