// Package stats provides the measurement utilities used throughout the
// simulator: named counters, sample summaries, and 95% confidence
// intervals following the multi-sample methodology of Alameldeen & Wood
// (HPCA 2003) that the paper uses for its multiprocessor results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters is a set of named uint64 event counters. The zero value is
// not ready to use; call NewCounters.
type Counters struct {
	m     map[string]uint64
	order []string
}

// NewCounters creates an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]uint64)}
}

// Add increments counter name by n, creating it if needed.
func (c *Counters) Add(name string, n uint64) {
	if _, ok := c.m[name]; !ok {
		c.order = append(c.order, name)
	}
	c.m[name] += n
}

// Get returns the value of counter name (zero if absent).
func (c *Counters) Get(name string) uint64 { return c.m[name] }

// Names returns counter names in first-use order.
func (c *Counters) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// String formats the counters one per line, sorted by name.
func (c *Counters) String() string {
	names := c.Names()
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%-40s %12d\n", n, c.m[n])
	}
	return sb.String()
}

// Sample accumulates float64 observations and summarizes them.
type Sample struct {
	xs []float64
}

// Observe appends one observation.
func (s *Sample) Observe(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (Bessel-corrected).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; beyond 30 the normal approximation 1.96 is used.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean. It is zero when fewer than two observations exist.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return t * s.StdDev() / math.Sqrt(float64(n))
}

// String formats the summary as "mean ± ci (n=k)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean(), s.CI95(), s.N())
}

// GeoMean returns the geometric mean of xs; zero or negative inputs are
// skipped (they would make the geometric mean undefined).
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
