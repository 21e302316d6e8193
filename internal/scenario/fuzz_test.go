package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadScenario throws arbitrary bytes at the full load pipeline
// (parse → strict decode → validate), once as YAML and once as JSON. The
// corpus seeds with every shipped template plus hand-picked malformed
// documents. Invariants: no panic ever, and the all-or-nothing contract —
// an error means a nil Spec, success means a Spec that validates and
// whose canonical marshal parses back to the same canonical bytes.
func FuzzLoadScenario(f *testing.F) {
	if entries, err := os.ReadDir("../../templates"); err == nil {
		for _, e := range entries {
			if data, err := os.ReadFile(filepath.Join("../../templates", e.Name())); err == nil {
				f.Add(data)
			}
		}
	}
	for _, seed := range []string{
		"",
		"id: x",
		"id: x\nid: y\n",
		"\tid: x\n",
		"id: \"unterminated\n",
		"id: x\ntitle: [\n",
		"a: 1\n---\nb: 2\n",
		"id: x\ntitle: T\nkind: faults\nfaults:\n  scenarios:\n    - key: 1\n",
		"id: x\ntitle: T\nkind: sweep\nsweep:\n  bits: 99999999999999999999\n",
		"id: x\ntitle: T\nkind: statewalk\nstatewalk: 5\n",
		"id: x\ntitle: T\nkind: statewalk\nstatewalk:\n  message: \"10\"\n  bogus: 1\n",
		"{\"id\": 1, \"kind\": []}",
		"id: x\nextract:\n  - name: e\n    type: regex\n    pattern: \"(\"\n",
		// Empty sections, which once loaded but marshalled to a bare key.
		"id: x\ntitle: T\nkind: pipeline\npipeline:\n  message: \"1\"\nplatform:\n  cores: 0\n",
		`{"id": "x", "title": "T", "kind": "pipeline", "pipeline": {"message": "1"}, "channel": {}}`,
		`{"id": "x", "title": "T", "kind": "faults", "transport": {"channel": {}}}`,
		// Floats that once marshalled to text reading back differently.
		"id: x\ntitle: T\nkind: pipeline\npipeline:\n  message: \"1\"\nassert:\n  - metric: a\n    op: eq\n    value: -0.0\n",
		`{"id": "x", "title": "T", "kind": "pipeline", "pipeline": {"message": "1"}, "assert": [{"metric": "a", "op": "lt", "value": 1e999}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"fuzz.yaml", "fuzz.json"} {
			spec, err := Parse(data, name)
			if err != nil {
				if spec != nil {
					t.Fatalf("%s: error with a non-nil (partial) spec: %v", name, err)
				}
				continue
			}
			if spec == nil {
				t.Fatalf("%s: nil spec without an error", name)
			}
			// A successfully loaded spec is fully validated...
			if verr := spec.Validate(name); verr != nil {
				t.Fatalf("%s: loaded spec fails Validate: %v", name, verr)
			}
			// ...and its canonical marshal is a fixed point of Parse.
			canon := Marshal(spec)
			again, rerr := Parse(canon, "remarshal.yaml")
			if rerr != nil {
				t.Fatalf("%s: canonical marshal of a loaded spec does not reparse: %v\n%s", name, rerr, canon)
			}
			if m := Marshal(again); !bytes.Equal(m, canon) {
				t.Fatalf("%s: canonical marshal is not a fixed point\nfirst:\n%s\nsecond:\n%s", name, canon, m)
			}
		}
	})
}
