package scenario

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSchemaDocumented is the doc-drift check: every key of the tagged
// schema and every value of an enum table appears in a code span of
// EXPERIMENTS.md's template-schema section, so adding a field takes its
// tag plus its doc line, and adding an enum value its row plus its doc.
func TestSchemaDocumented(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "## Declarative scenarios: the template schema")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no template-schema section")
	}
	section := doc[start:]
	if end := strings.Index(section[3:], "\n## "); end >= 0 {
		section = section[:end+3]
	}
	spans := strings.Join(regexp.MustCompile("`[^`\n]+`").FindAllString(section, -1), " ")
	for typ, sch := range schemas {
		for _, f := range sch.fields {
			if !regexp.MustCompile(`\b` + f.key + `\b`).MatchString(spans) {
				t.Errorf("schema key %s.%s is not documented in EXPERIMENTS.md's template-schema section", typ.Name(), f.key)
			}
		}
	}
	// An enum value is a whole code span, or a whole item of a
	// comma-separated one, so "quadage" is not found inside
	// "quadage-countermeasure".
	items := map[string]bool{}
	for _, span := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(section, -1) {
		for _, item := range strings.Split(span[1], ",") {
			items[strings.TrimSpace(item)] = true
		}
	}
	for enum, values := range map[string][]string{
		"kind":           Kinds(),
		"llc_policy":     LLCPolicies(),
		"fault type":     FaultTypes(),
		"sweep channel":  SweepChannels(),
		"victim program": VictimPrograms(),
	} {
		for _, val := range values {
			if !items[val] {
				t.Errorf("%s %q is not documented in EXPERIMENTS.md's template-schema section", enum, val)
			}
		}
	}
}
