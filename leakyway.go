// Package leakyway is a full reproduction, in pure Go, of "Leaky Way: A
// Conflict-Based Cache Covert Channel Bypassing Set Associativity"
// (MICRO 2022). Because the paper's experiments require Intel silicon and
// the PREFETCHNTA instruction, the library substitutes a cycle-level
// simulator of the paper's two platforms (Skylake i7-6700 and Kaby Lake
// i7-7700K): private L1/L2, a shared sliced inclusive LLC running the
// reverse-engineered quad-age LRU, the three PREFETCHNTA properties, cache
// line in-flight windows, back-invalidation, and per-level latencies.
//
// On top of the simulator it implements everything the paper evaluates:
//
//   - the NTP+NTP covert channel and its Prime+Probe baseline (Section IV);
//   - Prime+Scope and Prime+Prefetch+Scope (Section V-A);
//   - Reload+Refresh and Prefetch+Refresh v1/v2 (Section V-B);
//   - eviction-set construction, access-based and prefetch-based
//     (Algorithm 2, Section VI-A), plus the Section VI-D countermeasure
//     model;
//   - a registry of experiments regenerating every table and figure.
//
// This facade re-exports the stable API; the implementation lives under
// internal/.
package leakyway

import (
	"io"

	"leakyway/internal/attack"
	"leakyway/internal/channel"
	"leakyway/internal/core"
	"leakyway/internal/evset"
	"leakyway/internal/experiments"
	"leakyway/internal/fault"
	"leakyway/internal/hier"
	"leakyway/internal/mem"
	"leakyway/internal/platform"
	"leakyway/internal/scenario"
	"leakyway/internal/sim"
	"leakyway/internal/trace"
	"leakyway/internal/victim"
)

// Platform describes one simulated processor (Table I entries plus the
// latency model). Use Skylake or KabyLake, or modify a copy for what-if
// studies.
type Platform = hier.Config

// Skylake returns the Core i7-6700 configuration.
func Skylake() Platform { return platform.Skylake() }

// KabyLake returns the Core i7-7700K configuration.
func KabyLake() Platform { return platform.KabyLake() }

// Platforms returns both paper platforms in order.
func Platforms() []Platform { return platform.All() }

// PlatformByName resolves "skylake" or "kabylake".
func PlatformByName(name string) (Platform, bool) { return platform.ByName(name) }

// Machine is a simulated processor plus physical memory and the agents
// running on it. Spawn agents, then Run.
type Machine = sim.Machine

// Core is an agent's handle onto its pinned core: Load, PrefetchNTA, Flush,
// timed variants, and clock synchronization.
type Core = sim.Core

// AddressSpace is a per-process virtual address space.
type AddressSpace = mem.AddressSpace

// VAddr is a virtual address within an AddressSpace.
type VAddr = mem.VAddr

// Memory geometry constants.
const (
	// LineSize is the cache line size in bytes.
	LineSize = mem.LineSize
	// PageSize is the virtual memory page size in bytes.
	PageSize = mem.PageSize
)

// Thresholds are calibrated timing cut-offs (the paper's Th0).
type Thresholds = core.Thresholds

// Calibrate measures an agent's timing tiers and derives thresholds, as an
// attacker does before mounting an attack.
func Calibrate(c *Core, samples int) Thresholds { return core.Calibrate(c, samples) }

// NewMachine builds a machine for the platform with memBytes of physical
// memory; every stochastic element derives from seed.
func NewMachine(p Platform, memBytes uint64, seed int64) (*Machine, error) {
	return sim.NewMachine(p, memBytes, seed)
}

// MustNewMachine is NewMachine for static configurations.
func MustNewMachine(p Platform, memBytes uint64, seed int64) *Machine {
	return sim.MustNewMachine(p, memBytes, seed)
}

//
// Covert channels (Section IV).
//

// ChannelConfig parameterizes a covert-channel run.
type ChannelConfig = channel.Config

// ChannelReport summarizes a transmission (BER, raw rate, capacity).
type ChannelReport = channel.Report

// ChannelSweep is a Figure 8 curve.
type ChannelSweep = channel.SweepResult

// DefaultChannelConfig returns the calibrated protocol parameters for a
// platform.
func DefaultChannelConfig(p Platform) ChannelConfig {
	return channel.DefaultConfig(p.Name, p.FreqGHz)
}

// RunNTPNTP transmits msg over the NTP+NTP channel on m.
func RunNTPNTP(m *Machine, cfg ChannelConfig, msg []bool) (ChannelReport, []bool) {
	return channel.RunNTPNTP(m, cfg, msg)
}

// RunPrimeProbe transmits msg over the Prime+Probe baseline channel.
func RunPrimeProbe(m *Machine, cfg ChannelConfig, msg []bool) (ChannelReport, []bool) {
	return channel.RunPrimeProbe(m, cfg, msg)
}

// RunNTPNTPLanes transmits msg over the multi-lane NTP+NTP extension:
// lanes two-set pipelines carry lanes bits per iteration.
func RunNTPNTPLanes(m *Machine, cfg ChannelConfig, lanes int, msg []bool) (ChannelReport, []bool) {
	return channel.RunNTPNTPLanes(m, cfg, lanes, msg)
}

// RunNTPNTPSelfSync transmits msg without a shared epoch: the receiver
// locks onto the sender's preamble and framing (cfg.Start is known only to
// the sender).
func RunNTPNTPSelfSync(m *Machine, cfg ChannelConfig, msg []bool) (ChannelReport, []bool) {
	return channel.RunNTPNTPSelfSync(m, cfg, msg)
}

// SweepNTPNTP measures NTP+NTP across transmission intervals.
func SweepNTPNTP(p Platform, cfg ChannelConfig, intervals []int64, bits int, seed int64) ChannelSweep {
	return channel.Sweep(p, channel.RunNTPNTP, cfg, intervals, bits, seed, nil, nil)
}

// SweepPrimeProbe measures Prime+Probe across transmission intervals.
func SweepPrimeProbe(p Platform, cfg ChannelConfig, intervals []int64, bits int, seed int64) ChannelSweep {
	return channel.Sweep(p, channel.RunPrimeProbe, cfg, intervals, bits, seed, nil, nil)
}

// Message helpers.
var (
	// BytesToBits expands bytes MSB-first.
	BytesToBits = channel.BytesToBits
	// BitsToBytes packs bits MSB-first.
	BitsToBytes = channel.BitsToBytes
	// EncodeRepetition repeats each bit k times.
	EncodeRepetition = channel.EncodeRepetition
	// DecodeRepetition majority-votes k-bit groups.
	DecodeRepetition = channel.DecodeRepetition
	// RandomMessage generates a deterministic pseudo-random bit string.
	RandomMessage = channel.RandomMessage
	// EncodeHamming74 and DecodeHamming74 are a single-error-correcting
	// code; Interleave/Deinterleave spread burst errors across codewords.
	EncodeHamming74 = channel.EncodeHamming74
	DecodeHamming74 = channel.DecodeHamming74
	Interleave      = channel.Interleave
	Deinterleave    = channel.Deinterleave
)

//
// Reliable transport (robustness extension).
//

// TransportConfig parameterizes one ARQ transfer over the self-sync
// channel: physical-layer parameters plus retransmission and adaptive
// recalibration policy.
type TransportConfig = channel.TransportConfig

// TransportReport summarizes one ARQ transfer (attempts, retransmissions,
// recalibrations, final coding/slot, goodput, residual errors).
type TransportReport = channel.TransportReport

// DefaultTransportConfig returns calibrated ARQ parameters for a platform.
func DefaultTransportConfig(p Platform) TransportConfig {
	return channel.DefaultTransportConfig(p.Name, p.FreqGHz)
}

// RunARQ transfers payload over the reliable ARQ transport: CRC-8-framed
// data bursts on a forward lane, ACK/NACK bursts on a set-disjoint reverse
// lane, bounded retransmission and raw → Hamming → slot-stretch
// degradation. It returns an error for invalid configurations; a completed
// transfer with rep.Delivered false means retries were exhausted.
func RunARQ(m *Machine, cfg TransportConfig, payload []bool) (TransportReport, []bool, error) {
	return channel.RunARQ(m, cfg, payload)
}

//
// Fault injection (robustness extension).
//

// FaultScenario is a composable disturbance injected into a machine before
// a run: see Preemption, Pollution, ClockDrift, TimerSpikes, Migration.
type FaultScenario = fault.Scenario

// FaultTarget names the victim agents and supplies the injection horizon
// and pollution working set.
type FaultTarget = fault.Target

// FaultLog records scheduled and fired injection events for assertions.
type FaultLog = fault.Log

// FaultEvent is one injection occurrence.
type FaultEvent = fault.Event

// Fault scenarios (each implements FaultScenario).
type (
	// Preemption deschedules an agent for random windows.
	Preemption = fault.Preemption
	// Pollution bursts walk a congruent working set, evicting the lane.
	Pollution = fault.Pollution
	// ClockDrift skews one party's TSC by PPM parts per million.
	ClockDrift = fault.ClockDrift
	// TimerSpikes inflates an agent's timer readings in windows.
	TimerSpikes = fault.TimerSpikes
	// Migration moves an agent to a different core mid-run.
	Migration = fault.Migration
)

// ComposeFaults combines scenarios into one deterministic composite: parts
// inject in a fixed order with independent derived seeds, so a composite is
// reproducible regardless of how it was assembled.
func ComposeFaults(parts ...FaultScenario) FaultScenario { return fault.Compose(parts...) }

//
// Side-channel attacks (Section V).
//

// ScopeVariant selects Prime+Scope or Prime+Prefetch+Scope.
type ScopeVariant = attack.ScopeVariant

// Scope variants.
const (
	PrimeScope         = attack.PrimeScope
	PrimePrefetchScope = attack.PrimePrefetchScope
)

// ScopeConfig parameterizes a scope attack run.
type ScopeConfig = attack.ScopeConfig

// ScopeResult reports preparation latencies and event coverage.
type ScopeResult = attack.ScopeResult

// RunScope mounts a scope attack against a periodic victim.
func RunScope(p Platform, v ScopeVariant, cfg ScopeConfig, seed int64) ScopeResult {
	return attack.RunScope(sim.MustNewMachine(p, 1<<30, seed), v, cfg)
}

// RefreshVariant selects Reload+Refresh or one of the Prefetch+Refresh
// versions.
type RefreshVariant = attack.RefreshVariant

// Refresh variants.
const (
	ReloadRefresh     = attack.ReloadRefresh
	PrefetchRefreshV1 = attack.PrefetchRefreshV1
	PrefetchRefreshV2 = attack.PrefetchRefreshV2
)

// RefreshConfig parameterizes a refresh attack run.
type RefreshConfig = attack.RefreshConfig

// RefreshResult reports iteration latencies, revert costs and accuracy.
type RefreshResult = attack.RefreshResult

// RunRefresh mounts a refresh attack against a shared-memory victim.
func RunRefresh(p Platform, v RefreshVariant, cfg RefreshConfig, seed int64) RefreshResult {
	return attack.RunRefresh(sim.MustNewMachine(p, 1<<30, seed), v, cfg, seed)
}

// ClassicVariant selects Flush+Reload, Flush+Flush or Evict+Reload.
type ClassicVariant = attack.ClassicVariant

// Classic attack variants.
const (
	FlushReload = attack.FlushReload
	FlushFlush  = attack.FlushFlush
	EvictReload = attack.EvictReload
)

// ClassicConfig parameterizes the classic and coherence attacks.
type ClassicConfig = attack.ClassicConfig

// ClassicResult reports a classic attack run.
type ClassicResult = attack.ClassicResult

// CoherenceResult reports a coherence-state attack run.
type CoherenceResult = attack.CoherenceResult

// RunClassic mounts a classic shared-memory attack.
func RunClassic(p Platform, v ClassicVariant, cfg ClassicConfig, seed int64) ClassicResult {
	return attack.RunClassic(sim.MustNewMachine(p, 1<<30, seed), v, cfg, seed)
}

// RunCoherence mounts the coherence-state write-detection attack.
func RunCoherence(p Platform, cfg ClassicConfig, seed int64) CoherenceResult {
	return attack.RunCoherence(sim.MustNewMachine(p, 1<<30, seed), cfg, seed)
}

// KASLRConfig parameterizes the prefetch-timing KASLR break.
type KASLRConfig = attack.KASLRConfig

// KASLRResult reports the prefetch-timing KASLR break.
type KASLRResult = attack.KASLRResult

// RunKASLR maps a kernel image at a secret random slot and recovers the
// slot by timing prefetches of unmapped addresses (Section VI-C related
// work: the page-table walk depth leaks through prefetch latency).
func RunKASLR(p Platform, cfg KASLRConfig, seed int64) KASLRResult {
	return attack.RunKASLR(sim.MustNewMachine(p, 1<<30, seed), cfg, seed)
}

//
// Victim programs and end-to-end demonstrations.
//

// AESVictim is a T-table AES encryptor leaking its key through first-round
// lookups.
type AESVictim = victim.AESVictim

// AESObservation is one encryption's observed T-table line set.
type AESObservation = victim.Observation

// NewAESVictim allocates the shared T-table and returns the victim.
func NewAESVictim(as *AddressSpace, key [16]byte, window, start int64) (*AESVictim, error) {
	return victim.NewAESVictim(as, key, window, start)
}

// SpyTTable mounts a Flush+Reload monitor over the victim's T-table.
func SpyTTable(m *Machine, coreID int, as *AddressSpace, v *AESVictim, encryptions int) *[]AESObservation {
	return victim.SpyTTable(m, coreID, as, v, encryptions)
}

// RecoverHighNibbles runs the first-round elimination analysis on the
// observations, recovering the high nibble of every key byte.
func RecoverHighNibbles(obs []AESObservation) ([16]byte, error) {
	return victim.RecoverHighNibbles(obs)
}

// ExponentVictim is a square-and-multiply exponentiation leaking its secret
// exponent through its multiply routine's cache line.
type ExponentVictim = victim.ExponentVictim

// NewExponentVictim allocates the victim's multiply line.
func NewExponentVictim(as *AddressSpace, exponent []bool, window, start int64) (*ExponentVictim, error) {
	return victim.NewExponentVictim(as, exponent, window, start)
}

// SpyExponent recovers the exponent with Prime+Prefetch+Scope, one bit per
// square-and-multiply window.
func SpyExponent(m *Machine, coreID int, as *AddressSpace, v *ExponentVictim, vicAS *AddressSpace) *[]bool {
	return victim.SpyExponent(m, coreID, as, v, vicAS)
}

//
// Eviction-set construction (Section VI-A).
//

// EvsetOptions configures a construction run.
type EvsetOptions = evset.Options

// EvsetResult reports the found set and its cost.
type EvsetResult = evset.Result

// Eviction-set construction functions and helpers.
var (
	// BuildPrefetchEvset is the paper's Algorithm 2.
	BuildPrefetchEvset = evset.BuildPrefetch
	// BuildBaselineEvset is the access-based state of the art.
	BuildBaselineEvset = evset.BuildBaseline
	// BuildGroupTestingEvset is the threshold group-testing reduction of
	// Vila et al. (the paper's reference [62]).
	BuildGroupTestingEvset = evset.BuildGroupTesting
	// NewEvsetPool allocates a candidate pool for a target.
	NewEvsetPool = evset.NewPool
	// NewHugeEvsetPool allocates a physically contiguous pool whose
	// candidates share the target's set bits by construction.
	NewHugeEvsetPool = evset.NewHugePool
	// VerifyEvset counts truly congruent lines (diagnostic oracle).
	VerifyEvset = evset.Verify
)

//
// Experiments (every paper table and figure).
//

// EngineVersion identifies the simulation engine build. It is part of
// the daemon's result-cache key (bumping it invalidates every cached
// result) and is what the CLI -version flags and /v1/healthz report.
const EngineVersion = experiments.EngineVersion

// Experiment is one registered table/figure reproduction.
type Experiment = experiments.Experiment

// ExperimentResult carries an experiment's metrics.
type ExperimentResult = experiments.Result

// ExperimentContext carries run parameters for experiments.
type ExperimentContext = experiments.Context

// Experiments returns the registry in paper order.
func Experiments() []Experiment { return experiments.All() }

// NewExperimentContext returns a default context writing to out.
func NewExperimentContext(out io.Writer) *ExperimentContext {
	return experiments.NewContext(out)
}

// RunExperiment runs one experiment by ID ("fig8", "table2", ...).
func RunExperiment(ctx *ExperimentContext, id string) (*ExperimentResult, error) {
	return experiments.RunOne(ctx, id)
}

// RunAllExperiments runs the full suite.
func RunAllExperiments(ctx *ExperimentContext) (map[string]*ExperimentResult, error) {
	return experiments.RunAll(ctx)
}

//
// Declarative scenario templates (YAML/JSON experiment DSL).
//

// Scenario is one declarative scenario specification: platform geometry,
// channel/transport overrides, the experiment section matching its kind,
// and optional extractors with pass/fail assertions.
type Scenario = scenario.Spec

// ScenarioEvaluation is the post-run extractor/assertion outcome of a
// template; produce one with (*Scenario).Evaluate.
type ScenarioEvaluation = scenario.Evaluation

// LoadScenario parses and validates one template file. On any error no
// Scenario is returned — a template loads completely or not at all.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// LoadScenarios loads a template file, or every template in a directory
// (sorted by name).
func LoadScenarios(path string) ([]*Scenario, error) { return scenario.LoadPath(path) }

// ParseScenario parses and validates template bytes; filename selects the
// format (.json = JSON, else YAML) and prefixes every error.
func ParseScenario(data []byte, filename string) (*Scenario, error) {
	return scenario.Parse(data, filename)
}

// MarshalScenario renders a Scenario in the canonical template form —
// byte-stable, and Parse(Marshal(s)) reproduces s exactly. These are the
// bytes every cache-key digest is computed over; both the CLI and
// leakywayd marshal through this one path, so cache keys computed
// anywhere agree.
func MarshalScenario(s *Scenario) []byte { return scenario.CanonicalBytes(s) }

// ScenarioFingerprint returns the scenario's content digest
// ("sha256:<hex>" over the canonical bytes): equal exactly when two
// templates parse to the same Scenario. leakywayd folds it, with seed,
// jobs and engine version, into its result-cache key.
func ScenarioFingerprint(s *Scenario) string { return scenario.Fingerprint(s) }

// RunScenarios executes scenarios through the standard experiment engine:
// same fan-out, seed derivation and report flush order, so a template
// sharing an ID with a registered experiment reproduces its output
// byte-identically for any job count.
func RunScenarios(ctx *ExperimentContext, specs []*Scenario) (map[string]*ExperimentResult, error) {
	return experiments.RunSpecs(ctx, specs)
}

// BuiltinScenarios returns the Spec literals behind the shipped templates/
// pack (fig6, fig7, fig8, faults, ablate-lanes, noise).
func BuiltinScenarios() []*Scenario { return experiments.BuiltinSpecs() }

//
// Cycle-level tracing (observability).
//

// TraceEvent is one structured simulator event: the virtual timestamp, the
// emitting subsystem and event kind, plus whichever dimensions apply
// (agent, core, cache coordinates, latency, duration).
type TraceEvent = trace.Event

// TraceMask selects which subsystems a tracer records.
type TraceMask = trace.Mask

// Trace subsystem masks.
const (
	// TraceHier records cache-hierarchy events (hit/miss/fill/evict/…).
	TraceHier = trace.PkgHier
	// TraceSim records scheduler events (spawn/wait/timed ops/faults).
	TraceSim = trace.PkgSim
	// TraceFault records fault-injection firings.
	TraceFault = trace.PkgFault
	// TraceChannel records channel protocol events (tx/rx bits, frames).
	TraceChannel = trace.PkgChannel
	// TraceAllPkgs records everything.
	TraceAllPkgs = trace.PkgAll
)

// ParseTraceMask parses a comma-separated subsystem list ("channel,sim");
// the empty string means all subsystems.
func ParseTraceMask(s string) (TraceMask, error) { return trace.ParseMask(s) }

// TraceBuffer is one machine's ordered event stream.
type TraceBuffer = trace.Buffer

// TraceCollector gathers the streams of every traced machine in a run.
// Set ExperimentContext.Trace to one before running; stream labels derive
// from experiment/platform/point names, so exports are byte-identical for
// any job count.
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty collector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// WriteChromeTrace exports buffers as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one track per agent and
// per-level counter tracks per stream.
func WriteChromeTrace(w io.Writer, bufs []*TraceBuffer) error {
	return trace.WriteChromeTrace(w, bufs)
}

// WriteTraceJSONL exports buffers as compact JSONL: a stream-header line
// followed by one object per event.
func WriteTraceJSONL(w io.Writer, bufs []*TraceBuffer) error {
	return trace.WriteJSONL(w, bufs)
}

// TraceLaneDiag is a channel-diagnostics report for one traced stream:
// per-slot latency populations, the eye margin between them, and each bit
// error attributed to the fault window overlapping it.
type TraceLaneDiag = trace.LaneDiag

// DiagnoseTrace builds channel diagnostics from collected trace buffers
// (streams without received bits are skipped).
func DiagnoseTrace(bufs []*TraceBuffer) []TraceLaneDiag { return trace.Diagnose(bufs) }

// RenderTraceDiagnostics renders diagnostics as text, listing at most
// maxErrs bit errors per lane.
func RenderTraceDiagnostics(diags []TraceLaneDiag, maxErrs int) string {
	return trace.Render(diags, maxErrs)
}

// SplitSeed derives an independent child seed from a master seed and a key
// path. Every parallel unit of work (experiment, platform, trial shard)
// seeds its RNG this way, which is what makes results independent of
// scheduling order and worker count.
func SplitSeed(master int64, parts ...string) int64 {
	return experiments.SplitSeed(master, parts...)
}

// ExperimentMetrics flattens results into experiment → metric → value.
func ExperimentMetrics(results map[string]*ExperimentResult) map[string]map[string]float64 {
	return experiments.MetricsMap(results)
}

// WriteExperimentMetricsJSON writes results as indented JSON with sorted,
// stable keys — the machine-readable companion to the rendered report.
func WriteExperimentMetricsJSON(w io.Writer, results map[string]*ExperimentResult) error {
	return experiments.WriteMetricsJSON(w, results)
}
