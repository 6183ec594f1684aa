package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.Std() != 0 || s.CoV() != 0 {
		t.Fatal("empty series should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Std() != 2 { // classic example set
		t.Fatalf("std = %v, want 2", s.Std())
	}
	if got := s.CoV(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("cov = %v, want 0.4", got)
	}
}

func TestPercentile(t *testing.T) {
	s := &Series{Samples: []float64{10, 20, 30, 40, 50}}
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20},
		// Nearest-rank-specific: interpolation would give 14 and 46.
		{10, 10}, {90, 50},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	empty := &Series{}
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

// Nearest-rank percentiles always return an observed sample.
func TestPercentileReturnsObservedSample(t *testing.T) {
	f := func(xs []float64, pRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		s := &Series{Samples: xs}
		got := s.Percentile(float64(pRaw) / 2.55)
		for _, x := range xs {
			if x == got {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CoV is scale-invariant for positive scalings.
func TestCoVScaleInvariant(t *testing.T) {
	f := func(xs []float64, kRaw uint8) bool {
		k := float64(kRaw%20) + 1
		var a, b Series
		sum := 0.0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
			a.Add(x + 1e9) // shift positive so mean is nonzero
			b.Add(k * (x + 1e9))
			sum += x
		}
		if a.Len() == 0 {
			return true
		}
		return math.Abs(a.CoV()-b.CoV()) < 1e-9*(1+a.CoV())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	f := func(xs []float64, p1Raw, p2Raw uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		s := &Series{Samples: xs}
		p1 := float64(p1Raw) / 2.55
		p2 := float64(p2Raw) / 2.55
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
