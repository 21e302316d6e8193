package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const canonYAML = `id: canon
title: canonical fingerprint probe
kind: pipeline
pipeline:
  message: "1011"
`

// Reordered fields, extra whitespace, and the JSON form must all
// fingerprint identically: the digest is over the canonical marshalling,
// not the submitted bytes.
const canonYAMLReordered = `title: canonical fingerprint probe
kind: pipeline
id: canon
pipeline:
  message: "1011"
`

const canonJSON = `{
  "kind": "pipeline",
  "pipeline": {"message": "1011"},
  "id": "canon",
  "title": "canonical fingerprint probe"
}`

func TestFingerprintIgnoresSurfaceForm(t *testing.T) {
	specs := map[string]*Spec{}
	for name, src := range map[string]string{
		"yaml":      canonYAML,
		"reordered": canonYAMLReordered,
	} {
		s, err := Parse([]byte(src), name+".yaml")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[name] = s
	}
	js, err := Parse([]byte(canonJSON), "canon.json")
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	specs["json"] = js

	want := Fingerprint(specs["yaml"])
	if !strings.HasPrefix(want, "sha256:") || len(want) != len("sha256:")+64 {
		t.Fatalf("malformed fingerprint %q", want)
	}
	for name, s := range specs {
		if got := Fingerprint(s); got != want {
			t.Fatalf("%s fingerprints %s, yaml fingerprints %s — canonical form is not shared", name, got, want)
		}
	}
}

func TestFingerprintSeparatesSpecs(t *testing.T) {
	a, err := Parse([]byte(canonYAML), "a.yaml")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(strings.Replace(canonYAML, `"1011"`, `"1010"`, 1)), "b.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("different specs share a fingerprint")
	}
}

// TestCanonicalBytesRoundTrip pins CanonicalBytes to the marshal/parse
// fixed point: parsing the canonical bytes reproduces the same canonical
// bytes, so the cache key of a resubmitted canonical template is stable.
func TestCanonicalBytesRoundTrip(t *testing.T) {
	s, err := Parse([]byte(canonYAML), "canon.yaml")
	if err != nil {
		t.Fatal(err)
	}
	canon := CanonicalBytes(s)
	s2, err := Parse(canon, "canon2.yaml")
	if err != nil {
		t.Fatalf("canonical bytes do not re-parse: %v", err)
	}
	if string(CanonicalBytes(s2)) != string(canon) {
		t.Fatal("CanonicalBytes is not a fixed point under Parse")
	}
}

// TestNegativeZeroCanonical: -0 and 0 are one value, so they load to one
// Spec — "-0" would otherwise marshal to text that reads back as 0.
func TestNegativeZeroCanonical(t *testing.T) {
	zero := strings.Replace(canonYAML, "kind:", "assert:\n  - metric: m\n    op: eq\n    value: 0\nkind:", 1)
	neg := strings.Replace(zero, "value: 0", "value: -0.0", 1)
	a, err := Parse([]byte(zero), "zero.yaml")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(neg), "neg.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("value: -0.0 canonicalizes as\n%s", CanonicalBytes(b))
	}
}

// canonicalGolden is the sha256 of the canonical marshalling of the
// golden corpus below. CanonicalBytes keys the daemon's result store, so
// this digest must never change: a codec change that moves it would
// orphan every cached result.
const canonicalGolden = "f02e574143cff3c2a76a9f5e1a4170ca00d8cf6077ebda0c9a50ddd0f1c5b5c5"

// goldenSpecs is the pinned corpus: the 400 round-trip specs (seed 7),
// the shipped templates, and hand-written edge specs for the emitter's
// special cases (a between with max: 0, explicit-zero pointer fields,
// every quoting decision of titlePool).
func goldenSpecs(t *testing.T) []*Spec {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var specs []*Spec
	for i := 0; i < 400; i++ {
		specs = append(specs, genSpec(r))
	}
	shipped, err := LoadPath("../../templates")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, shipped...)
	edge := &Spec{
		ID: "edge", Title: "Edge cases", Kind: "pipeline",
		Platform: &PlatformSpec{LLCPartitionWays: intptr(0), NonInclusive: boolptr(false)},
		Channel:  &ChannelSpec{NoisePeriod: i64ptr(0)},
		Pipeline: &PipelineSpec{Message: "10"},
		Extract: []Extractor{
			{Name: "re", Type: "regex", Pattern: `(\d+)`, Group: 1},
			{Name: "m", Type: "metric", Metric: "skylake/x"},
		},
		Assert: []Assertion{
			{Metric: "a", Op: "between", Value: -1, Max: 0},
			{Metric: "b", Op: "between", Value: 0, Max: 0},
			{Extract: "re", Op: "approx", Value: 0, Tol: 0.5},
			{Extract: "m", Op: "ge", Value: 0},
		},
	}
	specs = append(specs, edge)
	for i, title := range titlePool {
		specs = append(specs, &Spec{
			ID: fmt.Sprintf("title-%d", i), Title: title, Paper: title, Kind: "pipeline",
			Platform: &PlatformSpec{Name: title},
			Pipeline: &PipelineSpec{Message: "1"},
		})
	}
	for i, s := range specs {
		if err := s.Validate("golden.yaml"); err != nil {
			t.Fatalf("golden spec %d is invalid: %v", i, err)
		}
	}
	return specs
}

// TestCanonicalGolden pins the canonical bytes of the golden corpus
// across code versions; TestMarshalRoundTrip only pins them within one.
func TestCanonicalGolden(t *testing.T) {
	h := sha256.New()
	for _, s := range goldenSpecs(t) {
		h.Write(Marshal(s))
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != canonicalGolden {
		t.Fatalf("canonical bytes of the golden corpus changed: sha256 %s, pinned %s", got, canonicalGolden)
	}
}
