package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over int64 samples, the form
// in which the paper presents its latency comparisons (Figures 11 and 12).
type CDF struct {
	sorted []int64
}

// NewCDF builds the CDF from a sample (copied).
func NewCDF(samples []int64) *CDF {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x int64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative probability q in [0,1].
func (c *CDF) Quantile(q float64) int64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// Points samples the CDF at n evenly spaced cumulative probabilities,
// returning (value, probability) pairs suitable for plotting or tabulating.
func (c *CDF) Points(n int) [](struct {
	X int64
	P float64
}) {
	out := make([]struct {
		X int64
		P float64
	}, 0, n)
	if len(c.sorted) == 0 || n <= 0 {
		return out
	}
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		out = append(out, struct {
			X int64
			P float64
		}{X: c.Quantile(p), P: p})
	}
	return out
}

// Render draws an ASCII CDF curve over the given x-range with the given
// width, one row per probability decile — a terminal stand-in for the
// paper's CDF figures.
func (c *CDF) Render(label string, xmin, xmax int64, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, c.N())
	if xmax <= xmin || width <= 0 {
		return b.String()
	}
	for decile := 10; decile >= 1; decile-- {
		p := float64(decile) / 10
		x := c.Quantile(p)
		pos := int(float64(x-xmin) / float64(xmax-xmin) * float64(width))
		if pos < 0 {
			pos = 0
		}
		if pos > width {
			pos = width
		}
		fmt.Fprintf(&b, "  %3.0f%% |%s* %d\n", p*100, strings.Repeat(" ", pos), x)
	}
	return b.String()
}
