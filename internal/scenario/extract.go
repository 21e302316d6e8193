package scenario

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Extractor is a typed post-run value extractor, modeled on Nuclei's
// capture-group extractors: a regex extractor pulls one capture group out
// of the rendered report, a metric extractor reads one named metric.
// Extracted values are named so assertions can reference them.
type Extractor struct {
	// Name keys the extracted value for assertions and output.
	Name string `yaml:"name"`
	// Type is "regex" or "metric".
	Type string `yaml:"type"`
	// Pattern and Group configure a regex extractor: the pattern runs
	// over the experiment's rendered report and Group (default 1)
	// selects the capture group.
	Pattern string `yaml:"pattern,omitempty"`
	Group   int    `yaml:"group,omitempty"`
	// Metric names the metric a metric extractor reads.
	Metric string `yaml:"metric,omitempty"`
}

// ExtractorTypes lists the valid Extractor.Type values.
func ExtractorTypes() []string { return []string{"regex", "metric"} }

// Assertion is one pass/fail check over a metric or an extracted value.
type Assertion struct {
	// Exactly one of Metric (a metric key) or Extract (an extractor
	// name) selects the checked value.
	Metric  string `yaml:"metric,omitempty"`
	Extract string `yaml:"extract,omitempty"`
	// Op compares the value against Value: eq, ne, lt, le, gt, ge,
	// between (Value ≤ v ≤ Max) or approx (|v-Value| ≤ Tol).
	Op    string  `yaml:"op"`
	Value float64 `yaml:"value"`
	Max   float64 `yaml:"max,omitempty"`
	Tol   float64 `yaml:"tol,omitempty"`
}

// keepZero emits max for every between assertion, max: 0 included, so
// the canonical text always shows both bounds.
func (a *Assertion) keepZero(key string) bool { return key == "max" && a.Op == "between" }

// AssertionOps lists the valid Assertion.Op values.
func AssertionOps() []string {
	return []string{"eq", "ne", "lt", "le", "gt", "ge", "between", "approx"}
}

func (a Assertion) source() string {
	if a.Metric != "" {
		return "metric " + a.Metric
	}
	return "extract " + a.Extract
}

// Describe renders the assertion as one line ("metric x ge 10").
func (a Assertion) Describe() string {
	switch a.Op {
	case "between":
		return fmt.Sprintf("%s between [%v, %v]", a.source(), a.Value, a.Max)
	case "approx":
		return fmt.Sprintf("%s approx %v ± %v", a.source(), a.Value, a.Tol)
	}
	return fmt.Sprintf("%s %s %v", a.source(), a.Op, a.Value)
}

func (a Assertion) holds(v float64) bool {
	switch a.Op {
	case "eq":
		return v == a.Value
	case "ne":
		return v != a.Value
	case "lt":
		return v < a.Value
	case "le":
		return v <= a.Value
	case "gt":
		return v > a.Value
	case "ge":
		return v >= a.Value
	case "between":
		return v >= a.Value && v <= a.Max
	case "approx":
		d := v - a.Value
		if d < 0 {
			d = -d
		}
		return d <= a.Tol
	}
	panic("scenario: unvalidated assertion op " + a.Op)
}

// ExtractedValue is one extractor's outcome.
type ExtractedValue struct {
	Name string
	// Matched reports whether the extractor found anything.
	Matched bool
	// Text is the raw extracted text; Value its numeric parse when
	// Numeric is true.
	Text    string
	Value   float64
	Numeric bool
}

// AssertionResult is one assertion's outcome.
type AssertionResult struct {
	Desc string
	// Found reports whether the checked value existed at all; Pass
	// whether the comparison held (false when not Found).
	Found bool
	Pass  bool
	Got   float64
}

// Evaluation is the combined post-run outcome for one template.
type Evaluation struct {
	Extracted  []ExtractedValue
	Assertions []AssertionResult
	// Failed counts assertions that did not pass.
	Failed int
}

// Render formats the evaluation as an indented text block.
func (ev Evaluation) Render() string {
	var b strings.Builder
	for _, x := range ev.Extracted {
		if !x.Matched {
			fmt.Fprintf(&b, "  extract %-20s (no match)\n", x.Name)
		} else {
			fmt.Fprintf(&b, "  extract %-20s = %s\n", x.Name, x.Text)
		}
	}
	for _, a := range ev.Assertions {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		if !a.Found {
			fmt.Fprintf(&b, "  %s %s (value not found)\n", verdict, a.Desc)
		} else {
			fmt.Fprintf(&b, "  %s %s (got %v)\n", verdict, a.Desc, a.Got)
		}
	}
	return b.String()
}

// Evaluate runs the spec's extractors and assertions against a run's
// rendered report and metrics. The spec must have passed Validate (which
// compiles every regex); Evaluate is read-only and never affects the run.
func (s *Spec) Evaluate(report string, metrics map[string]float64) Evaluation {
	ev := Evaluation{}
	extracted := map[string]ExtractedValue{}
	for _, x := range s.Extract {
		val := ExtractedValue{Name: x.Name}
		switch x.Type {
		case "regex":
			re := regexp.MustCompile(x.Pattern)
			group := x.Group
			if group == 0 {
				group = 1
			}
			if m := re.FindStringSubmatch(report); m != nil && group < len(m) {
				val.Matched = true
				val.Text = m[group]
				if f, err := strconv.ParseFloat(strings.TrimSpace(m[group]), 64); err == nil {
					val.Value, val.Numeric = f, true
				}
			}
		case "metric":
			if v, ok := metrics[x.Metric]; ok {
				val.Matched = true
				val.Text = strconv.FormatFloat(v, 'g', -1, 64)
				val.Value, val.Numeric = v, true
			}
		default:
			panic("scenario: unvalidated extractor type " + x.Type)
		}
		extracted[x.Name] = val
		ev.Extracted = append(ev.Extracted, val)
	}
	for _, a := range s.Assert {
		res := AssertionResult{Desc: a.Describe()}
		if a.Metric != "" {
			if v, ok := metrics[a.Metric]; ok {
				res.Found = true
				res.Got = v
			}
		} else if x, ok := extracted[a.Extract]; ok && x.Matched && x.Numeric {
			res.Found = true
			res.Got = x.Value
		}
		if res.Found {
			res.Pass = a.holds(res.Got)
		}
		if !res.Pass {
			ev.Failed++
		}
		ev.Assertions = append(ev.Assertions, res)
	}
	return ev
}
