package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"vbmo/internal/exitcode"
)

// TestMain lets the test binary stand in for vbrbench as the child of
// a pass: the parent re-executes its own binary with -pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-pass" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "vbrbench:", err)
			os.Exit(exitcode.Err)
		}
		os.Exit(exitcode.OK)
	}
	os.Exit(m.Run())
}

// TestQuickSmoke runs every workload on tiny budgets, traced, and checks
// that every metric BENCHMARK.json names is printed with its unit, that
// no check failed, and that the set file and Chrome trace are written.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	set := filepath.Join(dir, "set.json")
	chrome := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-quick", "-trace-out", chrome, "-o", set}, &out); err != nil {
		t.Fatalf("quick run failed: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]string{} // metric -> its report line
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 1 {
			printed[f[0]] = l
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		l, ok := printed[m.Name]
		if !ok || !strings.Contains(l, " "+m.Unit) {
			t.Errorf("metric %s is not printed with its unit %s (line %q)", m.Name, m.Unit, l)
		}
	}

	var final summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 {
		t.Errorf("summary: correct=%t failed=%d attempted=%d", final.Correct, final.Failed, final.Attempted)
	}
	if want := len(spec.Workloads) * len(spec.PerLayer); len(final.Metrics) != want {
		t.Errorf("summary has %d metrics, want %d", len(final.Metrics), want)
	}

	s, err := readSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(spec.Workloads) {
		t.Fatalf("set file has %d workloads, want %d", len(s.Workloads), len(spec.Workloads))
	}
	for _, w := range s.Workloads {
		if w.Failed != 0 {
			t.Errorf("%s: fail_frac %d/%d: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, m := range spec.EndToEnd {
			for _, v := range w.values(m.Name) {
				if v <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.Name, m.Name, v)
				}
			}
		}
	}
	var cmp bytes.Buffer
	if err := compareSets(&cmp, spec, set, set); err != nil {
		t.Errorf("comparing a set with itself: %v", err)
	}
	ok := strings.Count(cmp.String(), " "+verdictOK+"\n") + strings.Count(cmp.String(), " "+verdictUnresolved+"\n")
	if ok != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("a set compared with itself must be ok or unresolved everywhere:\n%s", cmp.String())
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("Chrome trace: %d events, err %v", len(tr.TraceEvents), err)
	}
}

func TestMedianQuartilesPercentile(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2, 10, 7}, 3, 1.5, 8.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same runs", lower, base, base, verdictOK},
		{"small drift inside the bound", lower, base, scale(base, 1.03), verdictOK},
		{"worse than the bound", lower, base, scale(base, 1.2), verdictRegressed},
		{"every run better", lower, base, scale(base, 0.8), verdictImproved},
		{"higher is better", higher, base, scale(base, 0.8), verdictRegressed},
		{"higher, every run better", higher, base, scale(base, 1.2), verdictImproved},
		{"spread wider than the bound", lower, []float64{50, 100, 150, 80, 120}, []float64{60, 110, 140, 90, 100}, verdictUnresolved},
		{"exact metric unchanged", higher, []float64{1.25, 1.25}, []float64{1.25, 1.25, 1.25}, verdictOK},
		{"exact metric changed by a hair", higher, []float64{1.25, 1.25}, []float64{1.2499, 1.2499}, verdictRegressed},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSamples checks what -compare takes as one side's samples: a single
// run's passes, or one reported value (the median) per run.
func TestSamples(t *testing.T) {
	m := metricSpec{Name: "sim_ipc", Unit: "instr/cycle"}
	run := func(vals ...float64) *setFile {
		ws := workloadSet{Name: "uni"}
		for _, v := range vals {
			ws.Passes = append(ws.Passes, map[string]float64{m.Name: v})
		}
		return &setFile{Workloads: []workloadSet{ws}}
	}
	other := &setFile{Workloads: []workloadSet{{Name: "farm"}}}
	for _, c := range []struct {
		name string
		side []*setFile
		want []float64
	}{
		{"one run gives its passes", []*setFile{run(3, 1, 2), other}, []float64{3, 1, 2}},
		{"several runs give their medians", []*setFile{run(3, 1, 2), other, run(5, 7), run(4)}, []float64{2, 6, 4}},
		{"no run of the workload", []*setFile{other}, nil},
	} {
		got, err := samples(c.side, "uni", m)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: samples = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := samples([]*setFile{run()}, "uni", m); err == nil {
		t.Error("a run without the metric must be an error")
	}
}

// TestHostSharesDecodesRuntimeProfile decodes a real CPU profile and
// checks that the bucket shares cover all of its CPU time.
func TestHostSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += shares["host_share."+b]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("bucket shares sum to %v, want 1 (x=%v)", sum, x)
	}
	if len(shares) != len(shareBuckets)+len(stages) {
		t.Errorf("%d shares, want %d", len(shares), len(shareBuckets)+len(stages))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "vbrbench.pass", ID: 1, Start: 0, End: 100},
		{Name: "system.New", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "system.Advance", ID: 3, Parent: 1, Start: 30, End: 90},
		{Name: "pipeline.Quiescent", ID: 4, Parent: 3, Start: 40, End: 50},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"vbrbench": 20, "system": 70, "pipeline": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
