package scenario

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"regexp"

	"leakyway/internal/channel"
	"leakyway/internal/hier"
	"leakyway/internal/platform"
)

// idRe restricts scenario IDs to registry-key shape: they name report
// sections, trace-stream prefixes and seed-derivation keys.
var idRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// validator accumulates the first error with file/field context, like dec.
type validator struct {
	file string
	err  error
}

func (v *validator) fail(path, format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("%s: %s: %s", v.file, path, fmt.Sprintf(format, args...))
	}
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// Validate checks a decoded Spec: required fields, enum membership,
// exactly-one-kind-section, and the cross-field constraints (channel
// configurations valid for every target platform, lane sets fitting the
// LLC geometry, assertions referencing declared extractors). The file
// name is carried into every error.
func (s *Spec) Validate(file string) error {
	v := &validator{file: file}
	s.validate(v)
	return v.err
}

func (s *Spec) validate(v *validator) {
	if s.ID == "" {
		v.fail("id", "required")
	} else if !idRe.MatchString(s.ID) {
		v.fail("id", "%q is not a valid scenario id (want %s)", s.ID, idRe)
	}
	if s.Title == "" {
		v.fail("title", "required")
	}
	if !contains(Kinds(), s.Kind) {
		v.fail("kind", "unknown kind %q (valid kinds: %v)", s.Kind, Kinds())
		return
	}

	// Exactly the section for Kind must be present. sec stays nil when it
	// is missing, which is reported here, so the per-kind checks below
	// skip it.
	var sec section
	rv := reflect.ValueOf(s).Elem()
	for _, k := range kinds {
		f := rv.Field(k.index)
		switch {
		case k.key == s.Kind && f.IsNil():
			v.fail(k.key, "kind %q requires a %q section", s.Kind, k.key)
		case k.key == s.Kind:
			sec = f.Interface().(section)
		case !f.IsNil():
			v.fail(k.key, "section %q conflicts with kind %q", k.key, s.Kind)
		}
	}

	if s.Platform != nil {
		s.Platform.validate(v, "platform")
	}
	platforms := s.targetPlatforms()

	// Channel and transport overrides must yield runnable configurations
	// on every platform the scenario targets.
	if s.Channel != nil {
		for _, cfg := range platforms {
			if err := s.Channel.Apply(channel.DefaultConfig(cfg.Name, cfg.FreqGHz)).Validate(); err != nil {
				v.fail("channel", "invalid for platform %s: %v", cfg.Name, err)
			}
		}
	}
	if s.Transport != nil {
		if faults := kindOf((*FaultsSpec)(nil)); s.Kind != faults {
			v.fail("transport", "section %q is only used by kind %q", "transport", faults)
		}
		for _, cfg := range platforms {
			if err := s.Transport.Apply(channel.DefaultTransportConfig(cfg.Name, cfg.FreqGHz)).Validate(); err != nil {
				v.fail("transport", "invalid for platform %s: %v", cfg.Name, err)
			}
		}
	}

	if sec != nil {
		sec.validate(v, s.Kind, platforms)
	}

	s.validateExtractAssert(v)
}

// targetPlatforms resolves the platforms validation must consider: the
// custom platform when present, both paper machines otherwise (the
// runtime context may narrow the list, never widen it).
func (s *Spec) targetPlatforms() []hier.Config {
	if s.Platform != nil {
		if _, ok := platform.ByName(baseOf(s.Platform.Base)); !ok {
			return nil // base already failed validation
		}
		if s.Platform.LLCPolicy != "" && !contains(LLCPolicies(), s.Platform.LLCPolicy) {
			return nil // policy already failed validation
		}
		return []hier.Config{s.Platform.Config()}
	}
	return platform.All()
}

func baseOf(base string) string {
	if base == "" {
		return "skylake"
	}
	return base
}

func (p *PlatformSpec) validate(v *validator, path string) {
	if _, ok := platform.ByName(baseOf(p.Base)); !ok {
		v.fail(joinPath(path, "base"), "unknown platform %q (want skylake or kabylake)", p.Base)
	}
	if p.LLCPolicy != "" && !contains(LLCPolicies(), p.LLCPolicy) {
		v.fail(joinPath(path, "llc_policy"), "unknown policy %q (valid policies: %v)", p.LLCPolicy, LLCPolicies())
	}
	checkNonNeg := func(key string, n int) {
		if n < 0 {
			v.fail(joinPath(path, key), "must be non-negative, got %d", n)
		}
	}
	checkNonNeg("cores", p.Cores)
	if p.Cores > hier.MaxCores {
		v.fail(joinPath(path, "cores"), "%d exceeds the %d-core sharer-mask limit", p.Cores, hier.MaxCores)
	}
	checkNonNeg("l1_sets", p.L1Sets)
	checkNonNeg("l1_ways", p.L1Ways)
	checkNonNeg("l2_sets", p.L2Sets)
	checkNonNeg("l2_ways", p.L2Ways)
	checkNonNeg("llc_slices", p.LLCSlices)
	checkNonNeg("llc_sets_per_slice", p.LLCSetsPerSlice)
	checkNonNeg("llc_ways", p.LLCWays)
	if p.FreqGHz < 0 {
		v.fail(joinPath(path, "freq_ghz"), "must be non-negative, got %v", p.FreqGHz)
	}
	for _, pow2 := range []struct {
		key string
		n   int
	}{{"l1_sets", p.L1Sets}, {"l2_sets", p.L2Sets}, {"llc_sets_per_slice", p.LLCSetsPerSlice}} {
		if pow2.n > 0 && pow2.n&(pow2.n-1) != 0 {
			v.fail(joinPath(path, pow2.key), "must be a power of two, got %d", pow2.n)
		}
	}
	if p.LLCPartitionWays != nil && *p.LLCPartitionWays < 0 {
		v.fail(joinPath(path, "llc_partition_ways"), "must be non-negative, got %d", *p.LLCPartitionWays)
	}
}

func validBits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r != '0' && r != '1' {
			return false
		}
	}
	return true
}

// mustBePositive fails path unless n > 0.
func mustBePositive[N int | int64](v *validator, path string, n N) {
	if n <= 0 {
		v.fail(path, "must be positive, got %d", n)
	}
}

func (w *StateWalkSpec) validate(v *validator, path string, _ []hier.Config) {
	if !validBits(w.Message) {
		v.fail(joinPath(path, "message"), "must be a non-empty string of 0s and 1s, got %q", w.Message)
	}
	mustBePositive(v, joinPath(path, "calibrate_samples"), w.CalibrateSamples)
	mustBePositive(v, joinPath(path, "receiver_ready"), w.ReceiverReady)
	mustBePositive(v, joinPath(path, "phase_step"), w.PhaseStep)
}

func (p *PipelineSpec) validate(v *validator, path string, _ []hier.Config) {
	if !validBits(p.Message) {
		v.fail(joinPath(path, "message"), "must be a non-empty string of 0s and 1s, got %q", p.Message)
	}
}

func (w *SweepSpec) validate(v *validator, path string, _ []hier.Config) {
	mustBePositive(v, joinPath(path, "bits"), w.Bits)
	if len(w.Channels) == 0 {
		v.fail(joinPath(path, "channels"), "at least one channel is required")
	}
	seen := map[string]bool{}
	for i, c := range w.Channels {
		cpath := fmt.Sprintf("%s.channels[%d]", path, i)
		if _, ok := sweepChannels.lookup(c.Channel); !ok {
			v.fail(joinPath(cpath, "channel"), "unknown channel %q (valid channels: %v)", c.Channel, SweepChannels())
		}
		if seen[c.Channel] {
			v.fail(joinPath(cpath, "channel"), "duplicate channel %q", c.Channel)
		}
		seen[c.Channel] = true
		if len(c.Intervals) == 0 {
			v.fail(joinPath(cpath, "intervals"), "at least one interval is required")
		}
		for j, iv := range c.Intervals {
			mustBePositive(v, fmt.Sprintf("%s.intervals[%d]", cpath, j), iv)
		}
	}
}

func (l *LanesSpec) validate(v *validator, path string, platforms []hier.Config) {
	mustBePositive(v, joinPath(path, "bits"), l.Bits)
	if len(l.LaneCounts) == 0 {
		v.fail(joinPath(path, "lane_counts"), "at least one lane count is required")
	}
	for i, n := range l.LaneCounts {
		if n <= 0 {
			v.fail(fmt.Sprintf("%s.lane_counts[%d]", path, i), "must be positive, got %d", n)
			continue
		}
		// Each lane pipelines across two LLC sets; the lane set must fit
		// inside one slice's set array.
		for _, cfg := range platforms {
			if 2*n > cfg.LLCSetsPerSlice {
				v.fail(fmt.Sprintf("%s.lane_counts[%d]", path, i),
					"%d lanes need %d LLC sets but %s has %d sets per slice",
					n, 2*n, cfg.Name, cfg.LLCSetsPerSlice)
			}
		}
	}
	if len(l.Offsets) == 0 {
		v.fail(joinPath(path, "offsets"), "at least one offset is required")
	}
	for i, off := range l.Offsets {
		if off < 0 {
			v.fail(fmt.Sprintf("%s.offsets[%d]", path, i), "must be non-negative, got %d", off)
		}
	}
	mustBePositive(v, joinPath(path, "lane_cost"), l.LaneCost)
}

func (n *NoiseSpec) validate(v *validator, path string, _ []hier.Config) {
	mustBePositive(v, joinPath(path, "bits"), n.Bits)
	if len(n.Periods) == 0 {
		v.fail(joinPath(path, "periods"), "at least one period is required")
	}
	seen := map[int64]bool{}
	for i, p := range n.Periods {
		if p < 0 {
			v.fail(fmt.Sprintf("%s.periods[%d]", path, i), "must be non-negative (0 = quiet), got %d", p)
		}
		if seen[p] {
			v.fail(fmt.Sprintf("%s.periods[%d]", path, i), "duplicate period %d (it would reuse the same derived seed)", p)
		}
		seen[p] = true
	}
	mustBePositive(v, joinPath(path, "interleave_depth"), n.InterleaveDepth)
}

func (f *FaultsSpec) validate(v *validator, path string, _ []hier.Config) {
	mustBePositive(v, joinPath(path, "raw_bits"), f.RawBits)
	mustBePositive(v, joinPath(path, "arq_bits"), f.ARQBits)
	mustBePositive(v, joinPath(path, "interleave_depth"), f.InterleaveDepth)
	if len(f.Scenarios) == 0 {
		v.fail(joinPath(path, "scenarios"), "at least one scenario is required")
	}
	seen := map[string]bool{}
	for i, sc := range f.Scenarios {
		spath := fmt.Sprintf("%s.scenarios[%d]", path, i)
		if sc.Key == "" || !idRe.MatchString(sc.Key) {
			v.fail(joinPath(spath, "key"), "%q is not a valid scenario key (want %s)", sc.Key, idRe)
		}
		if seen[sc.Key] {
			v.fail(joinPath(spath, "key"), "duplicate key %q (it would reuse the same derived seed)", sc.Key)
		}
		seen[sc.Key] = true
		names := map[string]bool{}
		for j, fs := range sc.Faults {
			fpath := fmt.Sprintf("%s.faults[%d]", spath, j)
			fs.validate(v, fpath)
			if v.err != nil {
				return
			}
			// Compose rejects duplicate scenario names at run time;
			// catch it at validation time instead.
			name := fs.Compile().Name()
			if names[name] {
				v.fail(fpath, "duplicate fault %q in one scenario (composition requires distinct names)", name)
			}
			names[name] = true
		}
	}
}

func (f FaultSpec) validate(v *validator, path string) {
	ft, ok := faultTypes.lookup(f.Type)
	if !ok {
		v.fail(joinPath(path, "type"), "unknown fault type %q (valid types: %v)", f.Type, FaultTypes())
		return
	}
	if f.Role != "" && f.Role != "sender" && f.Role != "receiver" {
		v.fail(joinPath(path, "role"), "unknown role %q (want sender or receiver)", f.Role)
	}
	// The first set field the type does not use, in schema order.
	rv := reflect.ValueOf(f)
	for _, fl := range schemas[rv.Type()].fields {
		if fl.key != "type" && !rv.Field(fl.index).IsZero() && !contains(ft.fields, fl.key) {
			v.fail(joinPath(path, fl.key), "field is not used by fault type %q (its fields: %v)", f.Type, ft.fields)
		}
	}
	ft.check(f, v, path)
}

func (w *VictimSpec) validate(v *validator, path string, _ []hier.Config) {
	if !contains(VictimPrograms(), w.Program) {
		v.fail(joinPath(path, "program"), "unknown program %q (valid programs: %v)", w.Program, VictimPrograms())
	}
	if raw, err := hex.DecodeString(w.Key); err != nil || len(raw) != 16 {
		v.fail(joinPath(path, "key"), "must be 32 hex characters (a 16-byte AES key), got %q", w.Key)
	}
	mustBePositive(v, joinPath(path, "encryptions"), w.Encryptions)
	mustBePositive(v, joinPath(path, "window"), w.Window)
	mustBePositive(v, joinPath(path, "start"), w.Start)
}

func (s *Spec) validateExtractAssert(v *validator) {
	names := map[string]bool{}
	for i, x := range s.Extract {
		path := fmt.Sprintf("extract[%d]", i)
		if x.Name == "" {
			v.fail(joinPath(path, "name"), "required")
		} else if names[x.Name] {
			v.fail(joinPath(path, "name"), "duplicate extractor name %q", x.Name)
		}
		names[x.Name] = true
		switch x.Type {
		case "regex":
			if x.Metric != "" {
				v.fail(joinPath(path, "metric"), "not used by regex extractors")
			}
			re, err := regexp.Compile(x.Pattern)
			if err != nil {
				v.fail(joinPath(path, "pattern"), "%v", err)
				continue
			}
			group := x.Group
			if group == 0 {
				group = 1
			}
			if group < 0 || group > re.NumSubexp() {
				v.fail(joinPath(path, "group"), "capture group %d out of range (pattern has %d)", group, re.NumSubexp())
			}
		case "metric":
			if x.Metric == "" {
				v.fail(joinPath(path, "metric"), "required for metric extractors")
			}
			if x.Pattern != "" || x.Group != 0 {
				v.fail(joinPath(path, "pattern"), "not used by metric extractors")
			}
		default:
			v.fail(joinPath(path, "type"), "unknown extractor type %q (valid types: %v)", x.Type, ExtractorTypes())
		}
	}
	for i, a := range s.Assert {
		path := fmt.Sprintf("assert[%d]", i)
		if (a.Metric == "") == (a.Extract == "") {
			v.fail(path, "exactly one of metric or extract must be set")
		}
		if a.Extract != "" && !names[a.Extract] {
			v.fail(joinPath(path, "extract"), "references undeclared extractor %q", a.Extract)
		}
		if !contains(AssertionOps(), a.Op) {
			v.fail(joinPath(path, "op"), "unknown op %q (valid ops: %v)", a.Op, AssertionOps())
			continue
		}
		if a.Op == "between" && a.Max < a.Value {
			v.fail(joinPath(path, "max"), "between needs value <= max, got [%v, %v]", a.Value, a.Max)
		}
		if a.Op != "between" && a.Max != 0 {
			v.fail(joinPath(path, "max"), "only used by the between op")
		}
		if a.Op == "approx" && a.Tol <= 0 {
			v.fail(joinPath(path, "tol"), "approx needs a positive tolerance, got %v", a.Tol)
		}
		if a.Op != "approx" && a.Tol != 0 {
			v.fail(joinPath(path, "tol"), "only used by the approx op")
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
