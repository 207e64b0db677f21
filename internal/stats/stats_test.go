package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("a", 1)
	c.Add("a", 2)
	c.Add("b", 10)
	if c.Get("a") != 3 || c.Get("b") != 10 || c.Get("missing") != 0 {
		t.Errorf("unexpected counts: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add("zeta", 1)
	c.Add("alpha", 2)
	s := c.String()
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Error("String output should be sorted by name")
	}
}

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known sample stddev of this set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleCI95(t *testing.T) {
	var s Sample
	if s.CI95() != 0 {
		t.Error("empty sample should have zero CI")
	}
	s.Observe(1)
	if s.CI95() != 0 {
		t.Error("single-observation sample should have zero CI")
	}
	s.Observe(3)
	// n=2, df=1: t = 12.706, sd = sqrt(2), ci = 12.706*sqrt(2)/sqrt(2).
	if got := s.CI95(); math.Abs(got-12.706) > 1e-9 {
		t.Errorf("CI95 = %v, want 12.706", got)
	}
	// Large n should use the normal critical value.
	var big Sample
	for i := 0; i < 100; i++ {
		big.Observe(float64(i % 2))
	}
	sd := big.StdDev()
	want := 1.96 * sd / 10
	if got := big.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("large-n CI95 = %v, want %v", got, want)
	}
}

func TestSampleCIShrinksWithN(t *testing.T) {
	width := func(n int) float64 {
		var s Sample
		for i := 0; i < n; i++ {
			s.Observe(float64(i % 5))
		}
		return s.CI95()
	}
	if !(width(10) > width(40) && width(40) > width(160)) {
		t.Errorf("CI should shrink with n: %v %v %v", width(10), width(40), width(160))
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	// Non-positive entries are skipped.
	if g := GeoMean([]float64{0, -3, 9}); math.Abs(g-9) > 1e-12 {
		t.Errorf("GeoMean skipping nonpositive = %v, want 9", g)
	}
}

func TestMeanConstantProperty(t *testing.T) {
	err := quick.Check(func(v float64, n uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || n == 0 || math.Abs(v) > 1e300 {
			return true
		}
		v = math.Mod(v, 1e12) // keep sums exactly representable
		var s Sample
		for i := 0; i < int(n); i++ {
			s.Observe(v)
		}
		return s.Mean() == v && s.StdDev() == 0 && s.CI95() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
}
