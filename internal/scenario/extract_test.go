package scenario

import (
	"strings"
	"testing"
)

// TestAssertionHolds covers every comparison op through Evaluate.
func TestAssertionHolds(t *testing.T) {
	cases := []struct {
		op         string
		value, max float64
		tol        float64
		v          float64
		want       bool
	}{
		{op: "eq", value: 1, v: 1, want: true},
		{op: "eq", value: 1, v: 2, want: false},
		{op: "ne", value: 1, v: 2, want: true},
		{op: "ne", value: 1, v: 1, want: false},
		{op: "lt", value: 5, v: 4, want: true},
		{op: "lt", value: 5, v: 5, want: false},
		{op: "le", value: 5, v: 5, want: true},
		{op: "le", value: 5, v: 6, want: false},
		{op: "gt", value: 5, v: 6, want: true},
		{op: "gt", value: 5, v: 5, want: false},
		{op: "ge", value: 5, v: 5, want: true},
		{op: "ge", value: 5, v: 4, want: false},
		{op: "between", value: 1, max: 3, v: 2, want: true},
		{op: "between", value: 1, max: 3, v: 4, want: false},
		{op: "approx", value: 10, tol: 0.5, v: 10.4, want: true},
		{op: "approx", value: 10, tol: 0.5, v: 9.6, want: true},
		{op: "approx", value: 10, tol: 0.5, v: 11, want: false},
	}
	for _, tc := range cases {
		s := &Spec{Assert: []Assertion{{
			Metric: "m", Op: tc.op, Value: tc.value, Max: tc.max, Tol: tc.tol,
		}}}
		ev := s.Evaluate("", map[string]float64{"m": tc.v})
		if len(ev.Assertions) != 1 {
			t.Fatalf("%s: %d assertion results", tc.op, len(ev.Assertions))
		}
		got := ev.Assertions[0]
		if !got.Found {
			t.Fatalf("%s: metric not found", tc.op)
		}
		if got.Pass != tc.want {
			t.Errorf("%s(%v, max=%v, tol=%v) on %v: pass=%v, want %v",
				tc.op, tc.value, tc.max, tc.tol, tc.v, got.Pass, tc.want)
		}
		wantFailed := 0
		if !tc.want {
			wantFailed = 1
		}
		if ev.Failed != wantFailed {
			t.Errorf("%s: Failed=%d, want %d", tc.op, ev.Failed, wantFailed)
		}
	}
}

// TestEvaluateExtractors covers regex group capture (explicit and default
// group), numeric parsing, metric extraction and the no-match path.
func TestEvaluateExtractors(t *testing.T) {
	report := "peaks on Skylake: NTP+NTP 172.9 KB/s vs Prime+Probe 64.2 KB/s (2.7x)\n"
	s := &Spec{
		Extract: []Extractor{
			{Name: "ratio", Type: "regex", Pattern: `\((\d+\.\d)x\)`},
			{Name: "pair", Type: "regex", Pattern: `NTP\+NTP (\d+\.\d) KB/s vs Prime\+Probe (\d+\.\d)`, Group: 2},
			{Name: "word", Type: "regex", Pattern: `peaks on (\w+)`},
			{Name: "missing", Type: "regex", Pattern: `no such line (\d+)`},
			{Name: "met", Type: "metric", Metric: "skylake/peak"},
			{Name: "nomet", Type: "metric", Metric: "absent"},
		},
		Assert: []Assertion{
			{Extract: "ratio", Op: "gt", Value: 1},
			{Extract: "word", Op: "eq", Value: 0},    // non-numeric extract: not Found
			{Extract: "missing", Op: "eq", Value: 0}, // unmatched extract: not Found
			{Metric: "absent", Op: "eq", Value: 0},   // missing metric: not Found
		},
	}
	ev := s.Evaluate(report, map[string]float64{"skylake/peak": 172.9})

	byName := map[string]ExtractedValue{}
	for _, x := range ev.Extracted {
		byName[x.Name] = x
	}
	if x := byName["ratio"]; !x.Matched || x.Text != "2.7" || !x.Numeric || x.Value != 2.7 {
		t.Errorf("ratio: %+v", x)
	}
	if x := byName["pair"]; !x.Matched || x.Text != "64.2" {
		t.Errorf("pair (group 2): %+v", x)
	}
	if x := byName["word"]; !x.Matched || x.Text != "Skylake" || x.Numeric {
		t.Errorf("word: %+v", x)
	}
	if x := byName["missing"]; x.Matched {
		t.Errorf("missing matched: %+v", x)
	}
	if x := byName["met"]; !x.Matched || x.Value != 172.9 {
		t.Errorf("met: %+v", x)
	}
	if x := byName["nomet"]; x.Matched {
		t.Errorf("nomet matched: %+v", x)
	}

	if a := ev.Assertions[0]; !a.Found || !a.Pass {
		t.Errorf("ratio assertion: %+v", a)
	}
	for i, name := range map[int]string{1: "word", 2: "missing", 3: "absent"} {
		if a := ev.Assertions[i]; a.Found || a.Pass {
			t.Errorf("%s assertion should be not-Found and failing: %+v", name, a)
		}
	}
	if ev.Failed != 3 {
		t.Errorf("Failed=%d, want 3", ev.Failed)
	}
}

// TestEvaluationRender pins the rendered block's shape: extract lines,
// no-match markers, PASS/FAIL verdicts and the value-not-found suffix.
func TestEvaluationRender(t *testing.T) {
	s := &Spec{
		Extract: []Extractor{
			{Name: "hit", Type: "metric", Metric: "m"},
			{Name: "miss", Type: "metric", Metric: "absent"},
		},
		Assert: []Assertion{
			{Metric: "m", Op: "ge", Value: 1},
			{Metric: "m", Op: "lt", Value: 1},
			{Extract: "miss", Op: "eq", Value: 0},
		},
	}
	out := s.Evaluate("", map[string]float64{"m": 2}).Render()
	for _, want := range []string{
		"extract hit",
		"= 2",
		"(no match)",
		"PASS metric m ge 1 (got 2)",
		"FAIL metric m lt 1 (got 2)",
		"FAIL extract miss eq 0 (value not found)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered evaluation lacks %q:\n%s", want, out)
		}
	}
}

// TestAssertionDescribe pins the one-line forms for the three arities.
func TestAssertionDescribe(t *testing.T) {
	cases := []struct {
		a    Assertion
		want string
	}{
		{Assertion{Metric: "m", Op: "ge", Value: 10}, "metric m ge 10"},
		{Assertion{Extract: "x", Op: "between", Value: 1, Max: 3}, "extract x between [1, 3]"},
		{Assertion{Metric: "m", Op: "approx", Value: 10, Tol: 0.5}, "metric m approx 10 ± 0.5"},
	}
	for _, tc := range cases {
		if got := tc.a.Describe(); got != tc.want {
			t.Errorf("Describe() = %q, want %q", got, tc.want)
		}
	}
}
