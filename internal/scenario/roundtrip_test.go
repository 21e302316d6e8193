package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestMarshalRoundTrip is the marshaller's contract: for any valid Spec,
// Parse(Marshal(s)) is deeply equal to s, and Marshal is stable (a second
// marshal of the reparsed spec is byte-identical). The generator below
// draws random valid specs across every kind, every optional section and
// the string edge cases the emitter has to quote.
func TestMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		s := genSpec(r)
		if err := s.Validate("gen.yaml"); err != nil {
			t.Fatalf("spec %d: generator produced an invalid spec: %v\n%#v", i, err, s)
		}
		m1 := Marshal(s)
		parsed, err := Parse(m1, "gen.yaml")
		if err != nil {
			t.Fatalf("spec %d: marshalled spec does not reparse: %v\n%s", i, err, m1)
		}
		if !reflect.DeepEqual(parsed, s) {
			t.Fatalf("spec %d: round-trip mismatch\nmarshalled:\n%s\nwant: %#v\ngot:  %#v",
				i, m1, s, parsed)
		}
		if m2 := Marshal(parsed); !bytes.Equal(m1, m2) {
			t.Fatalf("spec %d: Marshal is not stable\nfirst:\n%s\nsecond:\n%s", i, m1, m2)
		}
	}
}

// titlePool holds strings that exercise every quoting decision in
// renderString: plain, numeric-looking, bool-looking, flow-marker-led,
// comment-bearing, whitespace-edged, multi-line and non-ASCII.
var titlePool = []string{
	"Plain title",
	"Figure 8 — capacity sweep ✓",
	"colon: inside a value",
	"-leading dash",
	"123",
	"2.5",
	"true",
	"null",
	"  padded  ",
	"tab\tand\nnewline",
	"[flow-looking]",
	"has # a comment marker",
	"value#nospace",
	"'single quoted'",
	`"double quoted"`,
}

func pick(r *rand.Rand, pool []string) string { return pool[r.Intn(len(pool))] }

func genID(r *rand.Rand, prefix string) string {
	return fmt.Sprintf("%s%d", prefix, r.Intn(1000))
}

func genBits(r *rand.Rand) string {
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(r.Intn(2))
	}
	return string(b)
}

func i64ptr(v int64) *int64     { return &v }
func intptr(v int) *int         { return &v }
func f64ptr(v float64) *float64 { return &v }
func boolptr(v bool) *bool      { return &v }

func genSpec(r *rand.Rand) *Spec {
	kinds := Kinds()
	s := &Spec{
		ID:    genID(r, "gen-"),
		Title: pick(r, titlePool),
		Kind:  kinds[r.Intn(len(kinds))],
	}
	if r.Intn(2) == 0 {
		s.Paper = pick(r, titlePool)
	}
	if r.Intn(3) == 0 {
		s.Platform = genPlatform(r)
	}
	if r.Intn(3) == 0 {
		s.Channel = genChannel(r, 8000)
	}
	switch s.Kind {
	case "statewalk":
		s.StateWalk = &StateWalkSpec{
			Message:          genBits(r),
			CalibrateSamples: 1 + r.Intn(64),
			ReceiverReady:    1 + int64(r.Intn(100000)),
			PhaseStep:        1 + int64(r.Intn(10000)),
		}
	case "pipeline":
		s.Pipeline = &PipelineSpec{Message: genBits(r)}
	case "sweep":
		s.Sweep = genSweep(r)
	case "lanes":
		s.Lanes = genLanes(r)
	case "noise":
		s.Noise = genNoise(r)
	case "faults":
		s.Faults = genFaults(r)
		if r.Intn(2) == 0 {
			s.Transport = genTransport(r)
		}
	case "victim":
		s.Victim = genVictim(r)
	}
	genExtractAssert(r, s)
	return s
}

func genPlatform(r *rand.Rand) *PlatformSpec {
	p := &PlatformSpec{}
	p.Base = []string{"", "skylake", "kabylake"}[r.Intn(3)]
	if r.Intn(3) == 0 {
		p.Name = pick(r, titlePool)
	}
	if r.Intn(3) == 0 {
		p.Cores = 1 + r.Intn(8)
	}
	if r.Intn(3) == 0 {
		p.FreqGHz = []float64{2.5, 3.4, 4.2}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		p.L1Sets = 64
	}
	if r.Intn(3) == 0 {
		p.LLCWays = []int{12, 16}[r.Intn(2)]
	}
	if r.Intn(3) == 0 {
		p.LLCSetsPerSlice = 1024
	}
	if r.Intn(3) == 0 {
		p.LLCPolicy = LLCPolicies()[r.Intn(len(LLCPolicies()))]
	}
	if r.Intn(3) == 0 {
		p.AdjacentLine = boolptr(r.Intn(2) == 0)
	}
	if r.Intn(3) == 0 {
		p.StreamPrefetch = boolptr(r.Intn(2) == 0)
	}
	if r.Intn(3) == 0 {
		p.NonInclusive = boolptr(r.Intn(2) == 0)
	}
	if r.Intn(3) == 0 {
		p.LLCPartitionWays = intptr(r.Intn(5))
	}
	if reflect.DeepEqual(p, &PlatformSpec{}) {
		// An all-default override marshals to a bare "platform:" key,
		// which the strict parser rejects; always override something.
		p.Base = "kabylake"
	}
	return p
}

// genChannel draws a sparse override set that stays valid on both paper
// platforms (offsets below every default interval, intervals above
// minInterval so the same generator serves transport channels too).
func genChannel(r *rand.Rand, minInterval int64) *ChannelSpec {
	c := &ChannelSpec{}
	if r.Intn(2) == 0 {
		c.Interval = i64ptr(minInterval + int64(r.Intn(30000)))
	}
	if r.Intn(3) == 0 {
		c.Sets = intptr(1 + r.Intn(2))
	}
	if r.Intn(3) == 0 {
		c.SenderOffset = i64ptr(int64(r.Intn(400)))
	}
	if r.Intn(3) == 0 {
		c.ReceiverOffset = i64ptr(int64(r.Intn(400)))
	}
	if r.Intn(3) == 0 {
		c.ProtocolOverhead = i64ptr(int64(r.Intn(500)))
	}
	if r.Intn(3) == 0 {
		c.Start = i64ptr(int64(r.Intn(100000)))
	}
	if r.Intn(2) == 0 {
		// Explicit zero must survive the round trip (pointer semantics).
		c.NoisePeriod = i64ptr([]int64{0, 15000, 40000}[r.Intn(3)])
	}
	if r.Intn(3) == 0 {
		c.PrimeWalks = intptr(1 + r.Intn(3))
	}
	if reflect.DeepEqual(c, &ChannelSpec{}) {
		c.NoisePeriod = i64ptr(0)
	}
	return c
}

func genTransport(r *rand.Rand) *TransportSpec {
	t := &TransportSpec{}
	if r.Intn(2) == 0 {
		// Transport intervals must clear the calibrated re-prime minimum.
		t.Channel = genChannel(r, 20000)
	}
	if r.Intn(2) == 0 {
		t.MaxRetries = intptr(r.Intn(6))
	}
	if r.Intn(2) == 0 {
		t.FERWindow = intptr(1 + r.Intn(20))
	}
	if r.Intn(2) == 0 {
		t.FERThreshold = f64ptr([]float64{0.25, 0.5, 1}[r.Intn(3)])
	}
	if reflect.DeepEqual(t, &TransportSpec{}) {
		t.MaxRetries = intptr(3)
	}
	return t
}

func genSweep(r *rand.Rand) *SweepSpec {
	names := SweepChannels()
	n := 1 + r.Intn(len(names))
	chans := make([]SweepChannel, n)
	for i := 0; i < n; i++ {
		iv := make([]int64, 1+r.Intn(4))
		for j := range iv {
			iv[j] = 900 + int64(r.Intn(20000))
		}
		chans[i] = SweepChannel{Channel: names[i], Intervals: iv}
	}
	return &SweepSpec{Bits: 1 + r.Intn(500), Channels: chans}
}

func genLanes(r *rand.Rand) *LanesSpec {
	counts := []int{1, 2, 4, 8}[:1+r.Intn(4)]
	offsets := make([]int64, 1+r.Intn(3))
	for i := range offsets {
		offsets[i] = int64(r.Intn(1000))
	}
	return &LanesSpec{
		Bits:       1 + r.Intn(500),
		LaneCounts: counts,
		Offsets:    offsets,
		LaneCost:   1 + int64(r.Intn(500)),
	}
}

func genNoise(r *rand.Rand) *NoiseSpec {
	periods := []int64{0, 400000, 100000, 40000, 15000}[:1+r.Intn(5)]
	return &NoiseSpec{
		Bits:            1 + r.Intn(500),
		Periods:         periods,
		InterleaveDepth: 1 + r.Intn(56),
	}
}

func genFaults(r *rand.Rand) *FaultsSpec {
	f := &FaultsSpec{
		RawBits:         1 + r.Intn(200),
		ARQBits:         1 + r.Intn(64),
		InterleaveDepth: 1 + r.Intn(56),
	}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		sc := FaultScenario{Key: fmt.Sprintf("s%d", i)}
		// Distinct types per scenario keep composed fault names unique.
		types := append([]string(nil), FaultTypes()...)
		r.Shuffle(len(types), func(a, b int) { types[a], types[b] = types[b], types[a] })
		for _, typ := range types[:r.Intn(3)] {
			sc.Faults = append(sc.Faults, genFault(r, typ))
		}
		f.Scenarios = append(f.Scenarios, sc)
	}
	return f
}

func genFault(r *rand.Rand, typ string) FaultSpec {
	f := FaultSpec{Type: typ}
	role := func() string { return []string{"", "sender", "receiver"}[r.Intn(3)] }
	switch typ {
	case "preemption":
		f.Role = role()
		f.Count = 1 + r.Intn(4)
		f.MinDur = int64(10 + r.Intn(50))
		f.MaxDur = f.MinDur + int64(r.Intn(100))
	case "pollution":
		f.Bursts = 1 + r.Intn(4)
		f.Walks = 1 + r.Intn(4)
		f.Gap = int64(r.Intn(100))
	case "clock-drift":
		f.Role = role()
		f.PPM = int64(100+r.Intn(8000)) * int64(1-2*r.Intn(2))
	case "timer-spikes":
		f.Role = role()
		f.Count = 1 + r.Intn(4)
		f.Dur = 1 + int64(r.Intn(1000))
		f.Extra = int64(r.Intn(500))
	case "migration":
		f.Role = role()
		f.Cost = 1 + int64(r.Intn(100000))
	}
	return f
}

func genVictim(r *rand.Rand) *VictimSpec {
	key := make([]byte, 16)
	r.Read(key)
	return &VictimSpec{
		Program:     "aes",
		Key:         fmt.Sprintf("%x", key),
		Encryptions: 1 + r.Intn(50),
		Window:      1 + int64(r.Intn(10000)),
		Start:       1 + int64(r.Intn(10000)),
	}
}

func genExtractAssert(r *rand.Rand, s *Spec) {
	n := r.Intn(3)
	for i := 0; i < n; i++ {
		x := Extractor{Name: fmt.Sprintf("x%d", i)}
		if r.Intn(2) == 0 {
			x.Type = "regex"
			x.Pattern = `peak \((\d+\.\d)x\)`
			if r.Intn(2) == 0 {
				x.Group = 1
			}
		} else {
			x.Type = "metric"
			x.Metric = "m/" + x.Name
		}
		s.Extract = append(s.Extract, x)
	}
	m := r.Intn(3)
	for i := 0; i < m; i++ {
		a := Assertion{Op: AssertionOps()[r.Intn(len(AssertionOps()))]}
		if len(s.Extract) > 0 && r.Intn(2) == 0 {
			a.Extract = s.Extract[r.Intn(len(s.Extract))].Name
		} else {
			a.Metric = fmt.Sprintf("metric_%d", i)
		}
		a.Value = float64(r.Intn(1000)) * r.Float64()
		switch a.Op {
		case "between":
			a.Max = a.Value + r.Float64()*10
		case "approx":
			a.Tol = 0.001 + r.Float64()
		}
		s.Assert = append(s.Assert, a)
	}
}
