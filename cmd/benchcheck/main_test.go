package main

import (
	"fmt"
	"reflect"
	"testing"
)

// runs returns one identical sample per pair.
func runs(ns float64, allocs int64) []sample {
	s := make([]sample, pairs)
	for i := range s {
		s[i] = sample{ns: ns, allocs: allocs}
	}
	return s
}

// TestVerdict: a gate fails when the median per-pair head/base ratio is over
// the tolerance or head's fewest allocs/op exceed the base's plus 1%, rounded
// up (a 0-alloc base is exact); a gate the base lacks is new, one head lacks
// fails.
func TestVerdict(t *testing.T) {
	// Four of nine pairs caught by a 2x excursion on the head side.
	split := runs(100, 0)
	for i := 0; i < 4; i++ {
		split[2*i].ns = 200
	}
	// One run of nine with a burst of extra allocations.
	burst := runs(100, 1330)
	burst[3].allocs = 11771
	for _, tc := range []struct {
		name       string
		base, head []sample
		inflate    float64
		want       string
	}{
		{"identical samples", runs(100, 0), runs(100, 0), 1, "ok"},
		{"x1.3 slower", runs(100, 0), runs(130, 0), 1, "FAIL"},
		{"-inflate 1.3", runs(100, 0), runs(100, 0), 1.3, "FAIL"},
		{"4 of 9 pairs split", runs(100, 0), split, 1, "ok"},
		{"much faster", runs(100, 0), runs(30, 0), 1, "ok"},
		{"allocs at base", runs(100, 8467), runs(100, 8467), 1, "ok"},
		{"allocs at +1%", runs(100, 8467), runs(100, 8552), 1, "ok"}, // 84.67 rounds up to 85
		{"allocs one over +1%", runs(100, 8467), runs(100, 8553), 1, "FAIL"},
		{"0-alloc base, one alloc", runs(100, 0), runs(100, 1), 1, "FAIL"},
		{"allocation burst in one run", runs(100, 1330), burst, 1, "ok"},
		{"missing base", nil, runs(100, 0), 1, "new"},
		{"missing head", runs(100, 0), nil, 1, "FAIL"},
	} {
		if got := verdict("BenchmarkX", tc.base, tc.head, 20, tc.inflate).status; got != tc.want {
			t.Errorf("%s: status %q, want %q", tc.name, got, tc.want)
		}
	}
}

var sideName = [2]string{"base", "head"}

// TestMeasureAlternatesPairs: the two sides of a gate run back to back,
// base first in even pairs and head first in odd ones, and each side's
// samples come back in pair order.
func TestMeasureAlternatesPairs(t *testing.T) {
	gates := []gate{{Bench: "BenchmarkA"}, {Bench: "BenchmarkB"}}
	var order []string
	samples, err := measure(gates, 4, func(side int, g gate) (sample, bool, error) {
		order = append(order, sideName[side]+" "+g.Bench)
		return sample{ns: float64(len(order))}, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, first := range []int{base, head, base, head} {
		for _, g := range gates {
			want = append(want, sideName[first]+" "+g.Bench, sideName[1-first]+" "+g.Bench)
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("run order\n got %q\nwant %q", order, want)
	}
	for _, g := range gates {
		b, h := samples[base][g.Bench], samples[head][g.Bench]
		if len(b) != 4 || len(h) != 4 {
			t.Fatalf("%s: %d base and %d head samples, want 4 each", g.Bench, len(b), len(h))
		}
		for k := range b {
			// The runs of one pair are adjacent in the run order.
			if d := b[k].ns - h[k].ns; d != 1 && d != -1 {
				t.Errorf("%s pair %d: base run %v and head run %v are not adjacent", g.Bench, k, b[k].ns, h[k].ns)
			}
		}
	}
	if _, err := measure(gates, 4, func(int, gate) (sample, bool, error) {
		return sample{}, false, fmt.Errorf("boom")
	}); err == nil {
		t.Error("a failing run did not stop measure")
	}
}
