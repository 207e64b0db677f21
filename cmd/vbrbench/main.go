// Command vbrbench is the repository's benchmark. It runs four
// workloads — uni, mp16, verify16 and farm; README.md says why each
// exists — as timed passes, each pass a fresh child process of this
// binary, and prints every metric BENCHMARK.json names, with its unit
// and bound. It also checks the outputs: every digest must repeat
// across passes, sound litmus configurations must stay clean while
// nus-only is caught, the constraint-graph checker must find no cycle,
// and farm jobs must finish with equal digests from a warm cache. Any
// failed check makes the exit status nonzero.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cmd/vbrbench/run.sh -seed 1 -o set.json
//	bash cmd/vbrbench/run.sh --workload farm --seed 3 --seconds 15 --trace 1
//	bash cmd/vbrbench/run.sh -compare set1.json set2.json
//
// The end-to-end metrics are medians over untraced passes, with host
// times scaled to a reference host speed (calibrate.go). -trace 1
// adds one traced pass per workload that records spans and a CPU
// profile and reports the per-layer metrics instead. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"time"

	"vbmo/internal/exitcode"
	"vbmo/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vbrbench:", err)
		os.Exit(exitcode.Err)
	}
}

// minPasses is the number of untraced passes every workload runs at
// least: the fewest whose median no single outlying pass decides.
const minPasses = 3

// runConfig is how the parent runs each workload's passes.
type runConfig struct {
	seed    uint64
	seconds float64 // after minPasses, keep adding untraced passes while they fit
	traced  bool
	quick   bool
	cal     *calibrator
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vbrbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed for workload generation, litmus base seeds and farm job specs")
	seconds := fs.Float64("seconds", 0, "after three untraced passes, keep adding them while they fit in this many seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass per workload and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans to this file as Chrome-trace JSON (implies -trace 1)")
	out := fs.String("o", "", "write every pass's end-to-end metrics to this file as JSON, for -compare")
	quick := fs.Bool("quick", false, "tiny budgets, for the smoke test")
	compare := fs.Bool("compare", false, "compare two sides, each one -o file or a comma-separated list of them: vbrbench -compare A.json B1.json,B2.json")
	child := fs.Bool("pass", false, "run one pass of -workload and print its result (the parent runs these)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	b := fullBudget
	if *quick {
		b = quickBudget
	}
	if *child {
		res, err := runPass(*workload, *seed, b, *trace == 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}

	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two sides, each a comma-separated list of set files")
		}
		return compareSets(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("BENCHMARK.json has no workload %q", *workload)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds,
		traced: *trace == 1 || *traceOut != "", quick: *quick, cal: newCalibrator()}
	var runs []*workloadRun
	for _, name := range names {
		w, err := runWorkload(name, cfg)
		if err != nil {
			return err
		}
		runs = append(runs, w)
	}
	set := setFile{Seed: *seed}
	final := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range runs {
		ws, err := w.evaluate(spec)
		if err != nil {
			return err
		}
		set.Workloads = append(set.Workloads, ws)
		w.print(stdout, spec, ws)
		final.add(spec, ws, cfg.traced, len(runs) > 1)
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, runs); err != nil {
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return fmt.Errorf("%d of %d checks failed", final.Failed, final.Attempted)
	}
	return nil
}

// workloadRun is one workload's passes, as the parent saw them.
type workloadRun struct {
	name   string
	passes []passResult // untraced
	traced *passResult
	cal    calibration // probe times around the untraced passes
}

// runWorkload runs the untraced passes, each after the calibration
// probes, then the traced one, one child process at a time, so a
// single process generates the load.
func runWorkload(name string, cfg runConfig) (*workloadRun, error) {
	w := &workloadRun{name: name}
	start := time.Now()
	for len(w.passes) < minPasses || time.Since(start).Seconds()+w.meanWall() <= cfg.seconds {
		cfg.cal.sample(&w.cal)
		r, err := runChild(name, cfg, false)
		if err != nil {
			return nil, err
		}
		w.passes = append(w.passes, r)
	}
	cfg.cal.sample(&w.cal)
	if cfg.traced {
		r, err := runChild(name, cfg, true)
		if err != nil {
			return nil, err
		}
		w.traced = &r
	}
	return w, nil
}

func (w *workloadRun) meanWall() float64 {
	var walls []float64
	for _, p := range w.passes {
		walls = append(walls, p.EndToEnd["wall_s"])
	}
	return stats.Mean(walls)
}

// runChild runs one pass in a fresh child process and adds what only
// the parent sees: the pass's wall time.
func runChild(name string, cfg runConfig, traced bool) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	args := []string{"-pass", "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", name, err)
	}
	wall := time.Since(t0)
	var r passResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return passResult{}, fmt.Errorf("%s pass: decoding its result: %w", name, err)
	}
	r.EndToEnd["wall_s"] = wall.Seconds()
	return r, nil
}

// evaluate runs the cross-pass checks — equal digests on every pass,
// and exact equality of the traced pass's counts with the untraced
// ones — and gathers the workload's values for the reports.
func (w *workloadRun) evaluate(spec benchSpec) (workloadSet, error) {
	ws := workloadSet{Name: w.name, Calibration: w.cal}
	all := append([]passResult(nil), w.passes...)
	if w.traced != nil {
		all = append(all, *w.traced)
	}
	note := func(ok bool, format string, args ...any) {
		ws.Attempted++
		if !ok {
			ws.Failed++
			ws.Failures = append(ws.Failures, fmt.Sprintf(format, args...))
		}
	}
	for i, p := range all {
		ws.Attempted += p.Attempted
		ws.Failed += p.Failed
		ws.Failures = append(ws.Failures, p.Failures...)
		if i > 0 {
			note(p.Digest == all[0].Digest, "pass %d digest %.12s differs from pass 0's %.12s", i, p.Digest, all[0].Digest)
		}
	}
	for _, p := range w.passes {
		vals := map[string]float64{}
		for _, m := range spec.EndToEnd {
			v, ok := p.EndToEnd[m.Name]
			if !ok {
				return ws, fmt.Errorf("%s: the pass does not produce end-to-end metric %s", w.name, m.Name)
			}
			vals[m.Name] = v
		}
		ws.Passes = append(ws.Passes, vals)
	}
	if w.traced != nil {
		note(reflect.DeepEqual(w.traced.Counts, w.passes[0].Counts),
			"the traced pass's counts differ from the untraced pass's")
		ws.PerLayer = map[string]float64{}
		for k, v := range w.traced.PerLayer {
			ws.PerLayer[k] = v
		}
		ws.PerLayer["trace.overhead_frac"] = (w.traced.EndToEnd["wall_s"]-w.traced.TracedOnlyS)/median(ws.values("wall_s")) - 1
		for _, m := range spec.PerLayer {
			if _, ok := ws.PerLayer[m.Name]; !ok {
				return ws, fmt.Errorf("%s: the traced pass does not produce per-layer metric %s", w.name, m.Name)
			}
		}
	}
	return ws, nil
}

// print writes the human-readable report of one workload.
func (w *workloadRun) print(out io.Writer, spec benchSpec, ws workloadSet) {
	fmt.Fprintf(out, "== %s: %d passes, %d checks, %d failed ==\n", w.name, len(ws.Passes), ws.Attempted, ws.Failed)
	for _, f := range ws.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "  host index %.3f (host times below are at the reference host speed)\n",
		ws.Calibration.index())
	fmt.Fprintf(out, "  %-12s %14s %14s %14s %14s  %-12s %-6s %s\n",
		"end-to-end", "median", "q1", "q3", "raw median", "unit", "better", "bound")
	for _, m := range spec.EndToEnd {
		v := ws.atReference(m)
		q1, q3 := quartiles(v)
		fmt.Fprintf(out, "  %-12s %14.6g %14.6g %14.6g %14.6g  %-12s %-6s %.2f\n",
			m.Name, median(v), q1, q3, median(ws.values(m.Name)), m.Unit, m.Better, m.Bound)
	}
	if w.traced == nil {
		return
	}
	fmt.Fprintf(out, "  per-layer (traced pass)\n")
	for _, m := range spec.PerLayer {
		fmt.Fprintf(out, "  %-40s %14.6g  %s\n", m.Name, ws.PerLayer[m.Name], m.Unit)
	}
	self := selfTimes(w.traced.Spans)
	wall := time.Duration(w.traced.EndToEnd["wall_s"] * float64(time.Second))
	fmt.Fprintf(out, "  self time by layer (traced pass, %.3f s wall)\n", wall.Seconds())
	for _, layer := range sortedLayers(self) {
		fmt.Fprintf(out, "  %-12s %10.4f s %6.1f%%\n", layer, self[layer].Seconds(), 100*div(float64(self[layer]), float64(wall)))
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload into the summary: the end-to-end values, or
// the per-layer values of a traced run. With several workloads the
// metric names carry a "workload/" prefix.
func (s *summary) add(spec benchSpec, ws workloadSet, traced, prefix bool) {
	s.Attempted += ws.Attempted
	s.Failed += ws.Failed
	s.Correct = s.Failed == 0
	key := func(name string) string {
		if prefix {
			return ws.Name + "/" + name
		}
		return name
	}
	if traced {
		for _, m := range spec.PerLayer {
			s.Metrics[key(m.Name)] = metricValue{ws.PerLayer[m.Name], m.Unit}
		}
		return
	}
	for _, m := range spec.EndToEnd {
		s.Metrics[key(m.Name)] = metricValue{median(ws.atReference(m)), m.Unit}
	}
}
