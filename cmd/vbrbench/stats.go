package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which the metric may get worse (end-to-end only).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json vbrbench reads: the workload
// names and the metrics it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or the
// nearest directory above it.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	dir, err := os.Getwd()
	if err != nil {
		return spec, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			if err := json.Unmarshal(data, &spec); err != nil {
				return spec, fmt.Errorf("parsing %s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return spec, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return spec, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return spec, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads printed here match a script's. With fewer than
// two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return div(q3-q1, median(xs))
}

// percentile returns the nearest-rank p-quantile of an ascending slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// verdict compares the change's values b with the parent's values a
// for one metric. A metric that repeats exactly on both sides (a
// simulated statistic) is exact: any change counts. Otherwise:
//   - a median worse by more than the bound is a regression;
//   - when the parent's own spread is wider than the bound, the result
//     is unresolved, unless every run of the change reads better than
//     every run of the parent (improved);
//   - a gain counts only when the medians differ by more than the
//     parent's interquartile range and the change wins at least nine
//     tenths of all pairs of runs.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := div(mb-ma, ma) // positive when b is worse
	if m.Better == "higher" {
		worse = -worse
	}
	if constant(a) && constant(b) {
		switch {
		case worse > 0:
			return verdictRegressed
		case worse < 0:
			return verdictImproved
		}
		return verdictOK
	}
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, 0
	for _, y := range b {
		for _, x := range a {
			pairs++
			if better(y, x) {
				wins++
			}
		}
	}
	q1, q3 := quartiles(a)
	switch {
	case wins == pairs:
		if math.Abs(mb-ma) > q3-q1 {
			return verdictImproved
		}
		return verdictOK
	case spread(a) > m.Bound:
		return verdictUnresolved
	case worse > m.Bound:
		return verdictRegressed
	case worse < 0 && math.Abs(mb-ma) > q3-q1 && float64(wins) >= 0.9*float64(pairs):
		return verdictImproved
	}
	return verdictOK
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return len(xs) > 0
}

// compareSets prints, for every end-to-end metric of every workload both
// sides ran, both sides' medians and quartiles at the reference host
// speed, and a verdict. Each side is a comma-separated list of set
// files (see samples). It returns an error when any pair regressed.
func compareSets(w io.Writer, spec benchSpec, sideA, sideB string) error {
	a, err := readSide(sideA)
	if err != nil {
		return err
	}
	b, err := readSide(sideB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %d set files, B: %d set files\n", len(a), len(b))
	fmt.Fprintf(w, "%-9s %-12s %-12s %5s %12s %25s %5s %12s %25s %6s  %s\n", "workload", "metric", "unit",
		"A n", "A median", "A [q1, q3]", "B n", "B median", "B [q1, q3]", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, errA := samples(a, wl.Name, m)
			vb, errB := samples(b, wl.Name, m)
			if err := errors.Join(errA, errB); err != nil {
				return err
			}
			if len(va) == 0 || len(vb) == 0 {
				continue // a side did not run this workload
			}
			v := verdict(m, va, vb)
			if v == verdictRegressed {
				regressed++
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-9s %-12s %-12s %5d %12.6g %25s %5d %12.6g %25s %6.2f  %s\n", wl.Name, m.Name, m.Unit,
				len(va), median(va), fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				len(vb), median(vb), fmt.Sprintf("[%.6g, %.6g]", b1, b3), m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric-workload pairs regressed", regressed)
	}
	return nil
}

// samples returns one side's values of metric m on workload wl at the
// reference host speed. When one of the side's set files ran wl, they
// are that run's passes. When several did, they are the runs' reported
// values, the median of each run's passes: passes on this host spread
// by 0.15-0.35 within a run, so only whole runs, ten per side, compare
// within the bounds.
func samples(side []*setFile, wl string, m metricSpec) ([]float64, error) {
	var runs [][]float64
	for _, s := range side {
		if ws := s.workload(wl); ws != nil {
			v := ws.atReference(m)
			if len(v) == 0 {
				return nil, fmt.Errorf("%s: metric %s missing from a set file", wl, m.Name)
			}
			runs = append(runs, v)
		}
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	var out []float64
	for _, r := range runs {
		out = append(out, median(r))
	}
	return out, nil
}

// readSide reads a comma-separated list of set files.
func readSide(paths string) ([]*setFile, error) {
	var side []*setFile
	for _, p := range strings.Split(paths, ",") {
		s, err := readSet(p)
		if err != nil {
			return nil, err
		}
		side = append(side, s)
	}
	return side, nil
}

// setFile is what -o writes and -compare reads: every untraced pass's
// end-to-end values per workload, plus the traced pass's per-layer
// metrics when there was one.
type setFile struct {
	Seed      uint64        `json:"seed"`
	Workloads []workloadSet `json:"workloads"`
}

type workloadSet struct {
	Name        string               `json:"name"`
	Calibration calibration          `json:"calibration"`
	Passes      []map[string]float64 `json:"passes"`
	PerLayer    map[string]float64   `json:"per_layer,omitempty"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    []string             `json:"failures,omitempty"`
}

func (s *setFile) workload(name string) *workloadSet {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

func (w *workloadSet) values(metric string) []float64 {
	var out []float64
	for _, p := range w.Passes {
		if v, ok := p[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// atReference returns the passes' values of m at the reference host
// speed.
func (w *workloadSet) atReference(m metricSpec) []float64 {
	var out []float64
	for _, v := range w.values(m.Name) {
		out = append(out, w.Calibration.atReference(m, v))
	}
	return out
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}
