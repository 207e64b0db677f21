package main

import (
	"strings"
	"time"
)

// The host this benchmark runs on is shared. Over ten minutes, the same
// simulation window ran up to 40% slower for minutes at a time, which
// no number of passes averages away. The parent therefore times a
// fixed compute probe before every pass and after the last, and
// reports the passes' host times at the reference host speed. The probe
// is code of this file alone, so no change to the simulator moves it,
// and it runs in the parent, whose memory is not measured.
//
// The probe mixes random reads and writes over a 16 MiB table, branchy
// integer code, and map updates. Over 30-second blocks it cut the drift
// of uni's and mp16's window times from 13-14% to 3-4%. Across four
// ten-seed sets it cut the largest drift of a workload's median from
// 0.33 to 0.13 for uni's wall_s and from 0.32 to 0.11 for its setup_s.
// A probe that allocates and touches machine-sized arrays tracked
// setup_s no better.

// referenceCompute is what the probe takes on the reference host, a
// 2-vCPU x86-64 virtual machine in a quiet spell. It only fixes the scale of
// the reported host times; comparisons do not depend on it.
const referenceCompute = 90 * time.Millisecond

// calibration holds a run's probe times in seconds.
type calibration struct {
	Compute []float64 `json:"compute_s"`
}

// A calibrator owns the probe's table. Only the parent makes one, so
// the children's heaps and GC pacing stay untouched.
type calibrator struct {
	table []uint64
	sink  uint64 // keeps the results live
}

// newCalibrator makes a calibrator and runs the probe once, untimed, so
// that first-touch page faults fall outside every sample.
func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, 1<<21)}
	c.compute()
	return c
}

// sample adds two timings of the probe to cal: one timing varies by
// 10-20%, so every gap between passes contributes two samples to the
// run's median.
func (c *calibrator) sample(cal *calibration) {
	for i := 0; i < 2; i++ {
		cal.Compute = append(cal.Compute, c.compute().Seconds())
	}
}

// compute times the probe once: roughly equal parts of random reads and
// writes over the table, branchy integer code over a small array, and
// map inserts and deletes.
func (c *calibrator) compute() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(c.table) - 1)
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		c.table[j] += x
		c.sink += c.table[(j*7)&mask]
	}
	var small [256]uint32
	y := uint32(12345)
	for i := 0; i < 4_000_000; i++ {
		y = y*1664525 + 1013904223
		k := y >> 24
		switch {
		case small[k]&1 == 0:
			small[k] += y
		case small[k]&2 == 0:
			small[k] ^= y >> 3
		default:
			small[k]--
		}
	}
	c.sink += uint64(small[7])
	m := map[uint64]uint64{}
	for i := 0; i < 450_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 48
		m[k] += x
		if len(m) > 20000 {
			delete(m, k^1)
		}
	}
	c.sink += uint64(len(m))
	return time.Since(t0)
}

// index is the run's host speed relative to the reference host: 0.8
// means 20% slower. A set without probe times is taken at the reference
// speed.
func (cal calibration) index() float64 {
	if len(cal.Compute) == 0 {
		return 1
	}
	return referenceCompute.Seconds() / median(cal.Compute)
}

// atReference scales a value of metric m to the reference host speed: a
// time in seconds is multiplied by the index, a rate per second divided
// by it, and anything else is left as measured.
func (cal calibration) atReference(m metricSpec, v float64) float64 {
	switch {
	case m.Unit == "s":
		return v * cal.index()
	case strings.HasSuffix(m.Unit, "/s"):
		return div(v, cal.index())
	}
	return v
}
