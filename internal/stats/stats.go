// Package stats provides the summary statistics the experiment harness
// reports: means, percentiles, empirical CDFs, histograms, and the
// information-theoretic channel-capacity metric the paper uses for Figure 8
// and Table II.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary condenses a sample of cycle measurements.
type Summary struct {
	N      int
	Mean   float64
	Stdev  float64
	Min    int64
	Max    int64
	Median int64
	P95    int64
	P99    int64
}

// Summarize computes a Summary. It copies and sorts internally; the input is
// not modified. An empty input yields a zero Summary.
func Summarize(samples []int64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, sumsq float64
	for _, v := range sorted {
		f := float64(v)
		sum += f
		sumsq += f * f
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Stdev:  math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%d p50=%d p95=%d max=%d",
		s.N, s.Mean, s.Stdev, s.Min, s.Median, s.P95, s.Max)
}

func percentileSorted(sorted []int64, p float64) int64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean of the sample (0 for empty input).
func Mean(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}

// BinaryEntropy is H(p) in bits; H(0)=H(1)=0.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ChannelCapacity applies the paper's metric: raw transmission rate scaled
// by 1−H(e), where e is the bit error rate. Rates share whatever unit the
// caller uses (the paper reports KB/s). An error rate at or beyond 0.5
// yields zero capacity.
func ChannelCapacity(rawRate, errorRate float64) float64 {
	if errorRate >= 0.5 {
		return 0
	}
	if errorRate < 0 {
		errorRate = 0
	}
	return rawRate * (1 - BinaryEntropy(errorRate))
}
