// Package metrics provides the sample series the benchmark harness
// summarizes: mean, stddev, coefficient of variation and nearest-rank
// percentiles.
package metrics

import (
	"math"
	"sort"
)

// Series accumulates per-iteration samples (e.g. iteration times or
// throughputs).
type Series struct {
	Samples []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.Samples = append(s.Samples, v) }

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Samples) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Samples {
		sum += v
	}
	return sum / float64(len(s.Samples))
}

// Std returns the population standard deviation.
func (s *Series) Std() float64 {
	n := len(s.Samples)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	acc := 0.0
	for _, v := range s.Samples {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// CoV returns the coefficient of variation (std/mean), the stability
// metric of the paper's Sec. 6.4.3.
func (s *Series) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Std() / m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by the
// nearest-rank method: the smallest sample such that at least p% of
// the samples are ≤ it (sorted[⌈p/100·n⌉−1]). Unlike interpolation it
// always returns an observed sample, so percentile reports stay exact
// under the repository's bit-exactness discipline.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.Samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
