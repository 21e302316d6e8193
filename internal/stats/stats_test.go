package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stdev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stdev = %f", s.Stdev)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatal("empty summary should be zero")
	}
	if Summarize([]int64{7}).String() == "" {
		t.Fatal("String() empty")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []int64{5, 1, 3}
	Summarize(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	data := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := map[float64]int64{0: 10, 10: 10, 50: 50, 95: 100, 100: 100}
	for p, want := range cases {
		if got := percentileSorted(data, p); got != want {
			t.Errorf("P%.0f = %d, want %d", p, got, want)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean([]int64{2, 4, 6}) != 4 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestBinaryEntropy(t *testing.T) {
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Error("H(0) and H(1) must be 0")
	}
	if math.Abs(BinaryEntropy(0.5)-1) > 1e-12 {
		t.Errorf("H(0.5) = %f", BinaryEntropy(0.5))
	}
	// Symmetry property.
	f := func(p float64) bool {
		p = math.Mod(math.Abs(p), 1)
		return math.Abs(BinaryEntropy(p)-BinaryEntropy(1-p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelCapacity(t *testing.T) {
	if got := ChannelCapacity(100, 0); got != 100 {
		t.Errorf("error-free capacity = %f", got)
	}
	if got := ChannelCapacity(100, 0.5); got != 0 {
		t.Errorf("50%%-error capacity = %f, want 0", got)
	}
	if got := ChannelCapacity(100, 0.6); got != 0 {
		t.Errorf("capacity beyond 0.5 error = %f, want 0", got)
	}
	if got := ChannelCapacity(100, -0.1); got != 100 {
		t.Errorf("negative error rate should clamp: %f", got)
	}
	mid := ChannelCapacity(100, 0.1)
	if mid <= 0 || mid >= 100 {
		t.Errorf("capacity at 10%% error = %f, want in (0,100)", mid)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if c.N() != 10 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.At(5); got != 0.5 {
		t.Errorf("At(5) = %f", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %f", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %f", got)
	}
	if got := c.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %d", got)
	}
	pts := c.Points(5)
	if len(pts) != 5 || pts[4].P != 1 || pts[4].X != 10 {
		t.Fatalf("Points = %+v", pts)
	}
	if empty := NewCDF(nil); empty.At(1) != 0 || empty.Quantile(0.5) != 0 || len(empty.Points(3)) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v)
		}
		c := NewCDF(samples)
		prev := 0.0
		for x := int64(-40000); x <= 40000; x += 4000 {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return prev <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFRender(t *testing.T) {
	c := NewCDF([]int64{100, 200, 300})
	out := c.Render("test", 0, 400, 40)
	if out == "" || len(out) < 20 {
		t.Fatal("render produced nothing")
	}
	// Degenerate range must not panic.
	_ = c.Render("degenerate", 5, 5, 10)
}
