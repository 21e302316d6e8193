package scenario

import (
	"strings"
	"testing"
)

// minimal is the smallest valid template; negative cases below are
// mutations of it (or of per-kind variants).
const minimal = `id: demo
title: Demo scenario
kind: statewalk
statewalk:
  message: "10"
  calibrate_samples: 8
  receiver_ready: 30000
  phase_step: 5000
`

// TestValidateNegative is the strictness table: every malformed template
// must be rejected with an error that names the file and the exact field
// path, and must yield a nil Spec (never a partially-applied one).
func TestValidateNegative(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		// path is the field path the error must carry; msg a fragment of
		// the diagnostic.
		path, msg string
	}{
		{
			name: "missing id",
			yaml: "title: T\nkind: pipeline\npipeline:\n  message: \"1\"\n",
			path: "id", msg: "required",
		},
		{
			name: "invalid id",
			yaml: "id: Demo_X\ntitle: T\nkind: pipeline\npipeline:\n  message: \"1\"\n",
			path: "id", msg: "not a valid scenario id",
		},
		{
			name: "missing title",
			yaml: "id: demo\nkind: pipeline\npipeline:\n  message: \"1\"\n",
			path: "title", msg: "required",
		},
		{
			name: "unknown kind",
			yaml: "id: demo\ntitle: T\nkind: warp\n",
			path: "kind", msg: `unknown kind "warp"`,
		},
		{
			name: "missing kind section",
			yaml: "id: demo\ntitle: T\nkind: statewalk\n",
			path: "statewalk", msg: `kind "statewalk" requires`,
		},
		{
			name: "conflicting section",
			yaml: minimal + "pipeline:\n  message: \"1\"\n",
			path: "pipeline", msg: `conflicts with kind "statewalk"`,
		},
		{
			name: "unknown top-level field",
			yaml: minimal + "bogus: 1\n",
			path: "bogus", msg: "unknown field",
		},
		{
			name: "empty platform section",
			yaml: minimal + "platform:\n  cores: 0\n",
			path: "platform", msg: "empty section",
		},
		{
			name: "unknown nested field",
			yaml: minimal + "platform:\n  warp_drive: 1\n",
			path: "platform.warp_drive", msg: "unknown field",
		},
		{
			name: "wrong scalar type",
			yaml: strings.Replace(minimal, "title: Demo scenario", "title: 5", 1),
			path: "title", msg: "",
		},
		{
			name: "unknown platform base",
			yaml: minimal + "platform:\n  base: alderlake\n",
			path: "platform.base", msg: "unknown platform",
		},
		{
			name: "unknown llc policy",
			yaml: minimal + "platform:\n  llc_policy: fifo\n",
			path: "platform.llc_policy", msg: "unknown policy",
		},
		{
			name: "non-power-of-two sets",
			yaml: minimal + "platform:\n  l1_sets: 48\n",
			path: "platform.l1_sets", msg: "power of two",
		},
		{
			name: "negative geometry",
			yaml: minimal + "platform:\n  cores: -1\n",
			path: "platform.cores", msg: "non-negative",
		},
		{
			name: "cores beyond sharer mask",
			yaml: minimal + "platform:\n  cores: 65\n",
			path: "platform.cores", msg: "65 exceeds the 64-core sharer-mask limit",
		},
		{
			name: "statewalk bad message",
			yaml: strings.Replace(minimal, `message: "10"`, "message: abc", 1),
			path: "statewalk.message", msg: "0s and 1s",
		},
		{
			name: "statewalk zero samples",
			yaml: strings.Replace(minimal, "calibrate_samples: 8", "calibrate_samples: 0", 1),
			path: "statewalk.calibrate_samples", msg: "must be positive",
		},
		{
			name: "transport on non-faults kind",
			yaml: minimal + "transport:\n  max_retries: 3\n",
			path: "transport", msg: `only used by kind "faults"`,
		},
		{
			name: "channel invalid on platform",
			yaml: minimal + "channel:\n  interval: -5\n",
			path: "channel", msg: "invalid for platform",
		},
		{
			name: "sweep unknown channel",
			yaml: "id: demo\ntitle: T\nkind: sweep\nsweep:\n  bits: 10\n  channels:\n" +
				"    - channel: morse\n      intervals: [1000]\n",
			path: "sweep.channels[0].channel", msg: "unknown channel",
		},
		{
			name: "sweep duplicate channel",
			yaml: "id: demo\ntitle: T\nkind: sweep\nsweep:\n  bits: 10\n  channels:\n" +
				"    - channel: ntpntp\n      intervals: [1000]\n" +
				"    - channel: ntpntp\n      intervals: [2000]\n",
			path: "sweep.channels[1].channel", msg: "duplicate channel",
		},
		{
			name: "sweep non-positive interval",
			yaml: "id: demo\ntitle: T\nkind: sweep\nsweep:\n  bits: 10\n  channels:\n" +
				"    - channel: ntpntp\n      intervals: [1000, 0]\n",
			path: "sweep.channels[0].intervals[1]", msg: "must be positive",
		},
		{
			name: "lanes exceed llc sets",
			yaml: "id: demo\ntitle: T\nkind: lanes\nlanes:\n  bits: 10\n" +
				"  lane_counts: [100000]\n  offsets: [0]\n  lane_cost: 100\n",
			path: "lanes.lane_counts[0]", msg: "sets per slice",
		},
		{
			name: "noise duplicate period",
			yaml: "id: demo\ntitle: T\nkind: noise\nnoise:\n  bits: 10\n" +
				"  periods: [0, 0]\n  interleave_depth: 7\n",
			path: "noise.periods[1]", msg: "duplicate period",
		},
		{
			name: "faults bad scenario key",
			yaml: "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
				"  interleave_depth: 7\n  scenarios:\n    - key: \"Bad Key\"\n",
			path: "faults.scenarios[0].key", msg: "not a valid scenario key",
		},
		{
			name: "faults duplicate key",
			yaml: "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
				"  interleave_depth: 7\n  scenarios:\n    - key: none\n    - key: none\n",
			path: "faults.scenarios[1].key", msg: "duplicate key",
		},
		{
			name: "unknown fault type",
			yaml: "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
				"  interleave_depth: 7\n  scenarios:\n    - key: x\n      faults:\n        - type: meltdown\n",
			path: "faults.scenarios[0].faults[0].type", msg: "unknown fault type",
		},
		{
			name: "fault field of wrong type",
			yaml: "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
				"  interleave_depth: 7\n  scenarios:\n    - key: x\n      faults:\n" +
				"        - type: pollution\n          bursts: 2\n          walks: 2\n          ppm: 5\n",
			path: "faults.scenarios[0].faults[0].ppm", msg: "not used by fault type",
		},
		{
			name: "duplicate fault in one scenario",
			yaml: "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
				"  interleave_depth: 7\n  scenarios:\n    - key: x\n      faults:\n" +
				"        - type: preemption\n          count: 2\n          min_dur: 10\n          max_dur: 20\n" +
				"        - type: preemption\n          count: 2\n          min_dur: 10\n          max_dur: 20\n",
			path: "faults.scenarios[0].faults[1]", msg: "duplicate fault",
		},
		{
			name: "victim bad key",
			yaml: "id: demo\ntitle: T\nkind: victim\nvictim:\n  program: aes\n  key: zz\n" +
				"  encryptions: 10\n  window: 1000\n  start: 1000\n",
			path: "victim.key", msg: "32 hex characters",
		},
		{
			name: "extract bad regex",
			yaml: minimal + "extract:\n  - name: x\n    type: regex\n    pattern: \"(\"\n",
			path: "extract[0].pattern", msg: "",
		},
		{
			name: "extract group out of range",
			yaml: minimal + "extract:\n  - name: x\n    type: regex\n    pattern: peak\n    group: 2\n",
			path: "extract[0].group", msg: "out of range",
		},
		{
			name: "extract duplicate name",
			yaml: minimal + "extract:\n  - name: x\n    type: metric\n    metric: a\n" +
				"  - name: x\n    type: metric\n    metric: b\n",
			path: "extract[1].name", msg: "duplicate extractor name",
		},
		{
			name: "extract unknown type",
			yaml: minimal + "extract:\n  - name: x\n    type: xpath\n",
			path: "extract[0].type", msg: "unknown extractor type",
		},
		{
			name: "assert both metric and extract",
			yaml: minimal + "extract:\n  - name: x\n    type: metric\n    metric: a\n" +
				"assert:\n  - metric: a\n    extract: x\n    op: eq\n    value: 1\n",
			path: "assert[0]", msg: "exactly one of metric or extract",
		},
		{
			name: "assert undeclared extractor",
			yaml: minimal + "assert:\n  - extract: nope\n    op: eq\n    value: 1\n",
			path: "assert[0].extract", msg: "undeclared extractor",
		},
		{
			name: "assert unknown op",
			yaml: minimal + "assert:\n  - metric: a\n    op: near\n    value: 1\n",
			path: "assert[0].op", msg: "unknown op",
		},
		{
			name: "assert inverted between",
			yaml: minimal + "assert:\n  - metric: a\n    op: between\n    value: 5\n    max: 1\n",
			path: "assert[0].max", msg: "value <= max",
		},
		{
			name: "assert stray tol",
			yaml: minimal + "assert:\n  - metric: a\n    op: eq\n    value: 1\n    tol: 0.5\n",
			path: "assert[0].tol", msg: "only used by the approx op",
		},
	}
	const file = "bad.yaml"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte(tc.yaml), file)
			if err == nil {
				t.Fatalf("accepted malformed template:\n%s", tc.yaml)
			}
			if spec != nil {
				t.Fatalf("error with non-nil spec: %v", err)
			}
			got := err.Error()
			if !strings.Contains(got, file) {
				t.Errorf("error does not name the file %q: %v", file, err)
			}
			if !strings.Contains(got, tc.path) {
				t.Errorf("error does not name field path %q: %v", tc.path, err)
			}
			if tc.msg != "" && !strings.Contains(got, tc.msg) {
				t.Errorf("error lacks %q: %v", tc.msg, err)
			}
		})
	}
}

// TestErrorsAreDeterministic: when a template breaks a rule in several
// places, every parse names the same one — the daemon returns this text
// in its 400 body, so it must not depend on map iteration order.
func TestErrorsAreDeterministic(t *testing.T) {
	faults := "id: demo\ntitle: T\nkind: faults\nfaults:\n  raw_bits: 10\n  arq_bits: 8\n" +
		"  interleave_depth: 7\n  scenarios:\n    - key: x\n      faults:\n" +
		"        - type: migration\n          cost: 5\n          ppm: 3\n          gap: 2\n          dur: 1\n"
	for _, tc := range []struct{ name, yaml, want string }{
		{"unknown fields in sorted order", minimal + "bogus3: 1\nbogus1: 1\nbogus2: 1\n", "bad.yaml: bogus1: unknown field"},
		{"unused fault fields in schema order", faults, "bad.yaml: faults.scenarios[0].faults[0].gap: field is not used"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				_, err := Parse([]byte(tc.yaml), "bad.yaml")
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("parse %d: got %v, want an error starting %q", i, err, tc.want)
				}
			}
		})
	}
}

// TestValidateMinimalKinds parses one minimal valid template per kind —
// the strict loader must accept every section it documents.
func TestValidateMinimalKinds(t *testing.T) {
	cases := map[string]string{
		"statewalk": minimal,
		"pipeline":  "id: demo\ntitle: T\nkind: pipeline\npipeline:\n  message: \"1011\"\n",
		"sweep": "id: demo\ntitle: T\nkind: sweep\nsweep:\n  bits: 10\n  channels:\n" +
			"    - channel: ntpntp\n      intervals: [2000, 4000]\n",
		"lanes": "id: demo\ntitle: T\nkind: lanes\nlanes:\n  bits: 10\n" +
			"  lane_counts: [1, 2]\n  offsets: [0, 100]\n  lane_cost: 100\n",
		"noise": "id: demo\ntitle: T\nkind: noise\nnoise:\n  bits: 10\n" +
			"  periods: [0, 40000]\n  interleave_depth: 7\n",
		"faults": "id: demo\ntitle: T\nkind: faults\ntransport:\n  max_retries: 3\n" +
			"  fer_window: 10\n  fer_threshold: 0.5\n  channel:\n    noise_period: 0\n" +
			"faults:\n  raw_bits: 10\n  arq_bits: 8\n  interleave_depth: 7\n" +
			"  scenarios:\n    - key: none\n    - key: drift\n      faults:\n" +
			"        - type: clock-drift\n          ppm: -8000\n",
		"victim": "id: demo\ntitle: T\nkind: victim\nvictim:\n  program: aes\n" +
			"  key: 000102030405060708090a0b0c0d0e0f\n  encryptions: 10\n" +
			"  window: 1000\n  start: 1000\n",
	}
	for kind, doc := range cases {
		t.Run(kind, func(t *testing.T) {
			spec, err := Parse([]byte(doc), kind+".yaml")
			if err != nil {
				t.Fatalf("minimal %s template rejected: %v", kind, err)
			}
			if spec.Kind != kind {
				t.Fatalf("parsed kind %q, want %q", spec.Kind, kind)
			}
		})
	}
}

// TestPlatformSpecConfig pins the override semantics: zero-valued geometry
// inherits the base, pointer fields apply explicit false/zero.
func TestPlatformSpecConfig(t *testing.T) {
	doc := minimal + `platform:
  base: kabylake
  name: Custom Box
  llc_ways: 12
  llc_policy: lru
  adjacent_line: true
  non_inclusive: false
  llc_partition_ways: 0
`
	spec, err := Parse([]byte(doc), "p.yaml")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Platform.Config()
	if cfg.Name != "Custom Box" {
		t.Errorf("name override lost: %q", cfg.Name)
	}
	if cfg.LLCWays != 12 {
		t.Errorf("llc_ways override lost: %d", cfg.LLCWays)
	}
	if !cfg.HWPrefetch.AdjacentLine {
		t.Error("adjacent_line: true not applied")
	}
	if cfg.NonInclusive {
		t.Error("non_inclusive: false flipped the config")
	}
	if cfg.LLCPartitionWays != 0 {
		t.Errorf("llc_partition_ways: 0 not applied, got %d", cfg.LLCPartitionWays)
	}
	// Inherited geometry stays at the Kaby Lake base values.
	if cfg.L1Sets == 0 || cfg.LLCSlices == 0 {
		t.Errorf("base geometry not inherited: %+v", cfg)
	}
}
