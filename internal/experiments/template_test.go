package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"leakyway/internal/scenario"
)

// The shipped template pack under templates/ is generated from the builtin
// Spec literals (builtin.go): header comment + scenario.Marshal. The tests
// here pin the whole chain the README promises — the files on disk match
// the builtins byte-for-byte, parse back to deeply-equal Specs, and
// running them through the engine reproduces the registered experiments'
// report and metrics byte-identically for any -jobs value.

var updateTemplates = flag.Bool("update-templates", false,
	"regenerate templates/ from the builtin specs")

const templateDir = "../../templates"

func templateHeader(id string) string {
	return fmt.Sprintf(`# Scenario template for the %q experiment, generated from the builtin spec:
#   go test ./internal/experiments -run TestTemplatesInSync -update-templates
# Running it (leakyway run -template <file>) reproduces the registered
# experiment byte-for-byte; edit a copy to define a new scenario.
`, id)
}

func templateFile(s *scenario.Spec) []byte {
	return append([]byte(templateHeader(s.ID)), scenario.Marshal(s)...)
}

// TestTemplatesInSync pins templates/ to the builtin specs: regenerating
// every file must reproduce it byte-for-byte, and parsing it must yield a
// Spec deeply equal to the builtin literal (which also re-checks that
// Marshal is lossless for every shipped scenario).
func TestTemplatesInSync(t *testing.T) {
	if *updateTemplates {
		if err := os.MkdirAll(templateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, s := range BuiltinSpecs() {
			path := filepath.Join(templateDir, s.ID+".yaml")
			if err := os.WriteFile(path, templateFile(s), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range BuiltinSpecs() {
		path := filepath.Join(templateDir, s.ID+".yaml")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-templates to regenerate)", path, err)
		}
		if want := templateFile(s); !bytes.Equal(data, want) {
			t.Errorf("%s: shipped template differs from the builtin spec; rerun with -update-templates", path)
		}
		parsed, err := scenario.Parse(data, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(parsed, s) {
			t.Errorf("%s: Parse(template) != builtin spec\nparsed:  %#v\nbuiltin: %#v", path, parsed, s)
		}
	}
}

// TestTemplateEquivalence is the headline guarantee: loading the shipped
// templates and running them through the engine produces a report and a
// metrics export byte-identical to the registered experiments', at -jobs 1
// and -jobs 4. Both sides run in quick mode under the default seed.
func TestTemplateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the template pack three times")
	}
	specs, err := scenario.LoadPath(templateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(BuiltinSpecs()) {
		t.Fatalf("templates/ holds %d scenarios, want %d", len(specs), len(BuiltinSpecs()))
	}
	registered := make([]Experiment, len(specs))
	fromTemplates := make([]Experiment, len(specs))
	for i, s := range specs {
		e, ok := ByID(s.ID)
		if !ok {
			t.Fatalf("template %s has no registered experiment", s.ID)
		}
		registered[i] = e
		fromTemplates[i] = FromSpec(s)
	}

	runPack := func(jobs int, list []Experiment) (string, string, map[string]*Result) {
		var rep bytes.Buffer
		ctx := NewContext(&rep)
		ctx.Quick = true
		ctx.Jobs = jobs
		results, err := runExperiments(ctx, list)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var met bytes.Buffer
		if err := WriteMetricsJSON(&met, results); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return rep.String(), met.String(), results
	}

	wantRep, wantMet, results := runPack(1, registered)
	for _, jobs := range []int{1, 4} {
		gotRep, gotMet, _ := runPack(jobs, fromTemplates)
		if gotRep != wantRep {
			t.Errorf("jobs=%d: template report differs from registered experiments (len %d vs %d)",
				jobs, len(gotRep), len(wantRep))
		}
		if gotMet != wantMet {
			t.Errorf("jobs=%d: template metrics JSON differs from registered experiments", jobs)
		}
	}

	// The shipped assertions must hold on the run they describe — quick
	// mode included, since CI runs them that way.
	for _, s := range specs {
		res := results[s.ID]
		if res == nil {
			t.Fatalf("%s: no result", s.ID)
		}
		ev := s.Evaluate(res.Report, res.Metrics)
		if ev.Failed > 0 {
			t.Errorf("%s: %d shipped assertion(s) failed:\n%s", s.ID, ev.Failed, ev.Render())
		}
		for _, x := range ev.Extracted {
			if !x.Matched {
				t.Errorf("%s: shipped extractor %s found no match", s.ID, x.Name)
			}
		}
	}
}

// TestEveryKindHasInterpreter checks that the interpreter table covers
// exactly the scenario kinds: a kind without an interpreter would fail
// at run time, an interpreter without a kind is dead code.
func TestEveryKindHasInterpreter(t *testing.T) {
	kinds := scenario.Kinds()
	for _, k := range kinds {
		if interpreters[k] == nil {
			t.Errorf("kind %q has no interpreter", k)
		}
	}
	if len(interpreters) != len(kinds) {
		t.Errorf("%d interpreters for %d kinds %v", len(interpreters), len(kinds), kinds)
	}
}
