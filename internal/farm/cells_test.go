package farm

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"vbmo/internal/experiments"
	"vbmo/internal/farm/cachekey"
	"vbmo/internal/litmus"
	"vbmo/internal/par"
	"vbmo/internal/stats"
)

func testSpec() JobSpec {
	return JobSpec{
		Litmus: &LitmusSpec{
			Tests:   []string{"SB", "MP"},
			Configs: []string{"baseline", "nus-only"},
			Runs:    2, Seed: 7,
		},
		Bench: &BenchSpec{
			Machines: []string{"baseline"}, Workloads: []string{"gzip"},
			Cores: 1, Warm: 1000, Window: 4000, Seed: 1,
		},
	}
}

// TestCellsExpansionDeterministic: the same spec always expands to the
// same cell list with the same keys — expansion order is part of the
// job's result contract.
func TestCellsExpansionDeterministic(t *testing.T) {
	a, err := testSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	if len(a) != 5 { // 2 tests × 2 configs + 1 bench
		t.Fatalf("expanded to %d cells, want 5", len(a))
	}
	for i := range a {
		ka, err := a[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := b[i].Key()
		if ka != kb {
			t.Fatalf("cell %d key unstable: %s vs %s", i, ka, kb)
		}
	}
}

// TestCellKeySensitivity: changing any execution-relevant parameter
// changes the cache key, so stale results can never be served.
func TestCellKeySensitivity(t *testing.T) {
	base := Cell{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 7}
	ref, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []Cell{
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 3, Seed: 7},
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 8},
		{Kind: KindLitmus, Test: "SB", Config: "nus-only", Runs: 2, Seed: 7},
		{Kind: KindLitmus, Test: "MP", Config: "baseline", Runs: 2, Seed: 7},
		{Kind: KindLitmus, Test: "SB", Config: "baseline", Runs: 2, Seed: 7, Cores: 4},
	} {
		k, err := mod.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Fatalf("cell %+v collides with base", mod)
		}
	}
	bb := Cell{Kind: KindBench, Machine: "baseline", Workload: "gzip",
		Cores: 1, Warm: 1000, Instr: 4000, Seed: 1}
	bref, err := bb.Key()
	if err != nil {
		t.Fatal(err)
	}
	bm := bb
	bm.Machine = "replay-all"
	if k, _ := bm.Key(); k == bref {
		t.Fatal("machine change did not change the bench key")
	}
	bw := bb
	bw.Warm = 2000
	if k, _ := bw.Key(); k == bref {
		t.Fatal("warmup change did not change the bench key")
	}
	mx := bb
	mx.Kind = KindMatrix
	if k, _ := mx.Key(); k == bref {
		t.Fatal("matrix and bench cells with equal params collide")
	}
}

// TestLitmusCellMatchesSweep: a farm litmus cell must reproduce
// litmus.Sweep bit-identically — the farm expands in Sweep's battery
// order (tests outer, configs inner) with Sweep's per-cell seeds, so
// verdicts compare index for index.
func TestLitmusCellMatchesSweep(t *testing.T) {
	spec := JobSpec{Litmus: &LitmusSpec{
		Tests:   []string{"SB", "MP"},
		Configs: []string{"baseline", "nus-only"},
		Runs:    3, Seed: 11,
	}}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want, err := litmus.Sweep(litmusSweepOptions(t, spec.Litmus))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("sweep has %d verdicts, farm %d cells", len(want), len(cells))
	}
	for i, c := range cells {
		raw, err := c.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var got litmus.Verdict
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("cell %d (%s/%s):\nfarm  %+v\nsweep %+v",
				i, c.Test, c.Config, got, want[i])
		}
	}
}

// litmusSweepOptions is the litmus.Sweep that l describes.
func litmusSweepOptions(t *testing.T, l *LitmusSpec) litmus.SweepOptions {
	t.Helper()
	o := litmus.SweepOptions{Runs: l.Runs, Seed: l.Seed, Cores: l.Cores, Fault: l.Fault}
	for _, name := range l.Tests {
		tt, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("unknown test %s", name)
		}
		o.Tests = append(o.Tests, tt)
	}
	for _, name := range l.Configs {
		c, ok := litmus.ConfigByName(name)
		if !ok {
			t.Fatalf("unknown config %s", name)
		}
		o.Configs = append(o.Configs, c)
	}
	return o
}

// TestBenchCellDeterministic: a bench cell carries no wall-clock term,
// so two executions produce byte-identical observations.
func TestBenchCellDeterministic(t *testing.T) {
	c := Cell{Kind: KindBench, Machine: "baseline", Workload: "gzip",
		Cores: 1, Warm: 1000, Instr: 4000, Seed: 1}
	a, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("bench cell not deterministic:\n%s\n%s", a, b)
	}
	var obs BenchObs
	if err := json.Unmarshal(a, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Cycles <= 0 || obs.Committed == 0 || obs.IPC <= 0 {
		t.Fatalf("degenerate observation %+v", obs)
	}
}

// TestValidateRejects: bad specs fail at submission, not in a worker.
func TestValidateRejects(t *testing.T) {
	for _, spec := range []JobSpec{
		{},
		{Litmus: &LitmusSpec{Runs: 0}},
		{Litmus: &LitmusSpec{Runs: 1, Tests: []string{"no-such-test"}}},
		{Litmus: &LitmusSpec{Runs: 1, Configs: []string{"no-such-config"}}},
		{Matrix: &MatrixSpec{}},
		{Matrix: &MatrixSpec{UniInstr: 100, Machines: []string{"no-such-machine"}}},
		{Bench: &BenchSpec{Window: 100, Cores: 1}},
		{Bench: &BenchSpec{Window: 100, Cores: 1,
			Machines: []string{"baseline"}, Workloads: []string{"no-such-workload"}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v validated", spec)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestMatrixCellsMatchRun: a farm matrix job computes what
// experiments.Run computes. Executing its cells and folding IPC per
// point in cell order gives every point the same observation count and
// mean as Run on the same configuration.
func TestMatrixCellsMatchRun(t *testing.T) {
	m := testMatrixSpec()
	cells, err := JobSpec{Matrix: m}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	type point struct{ machine, workload string }
	got := map[point]*stats.Sample{}
	for _, c := range cells {
		raw, err := c.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var obs experiments.CellObs
		if err := json.Unmarshal(raw, &obs); err != nil {
			t.Fatal(err)
		}
		p := point{c.Machine, c.Workload}
		if got[p] == nil {
			got[p] = &stats.Sample{}
		}
		got[p].Observe(obs.IPC)
	}
	want, err := experiments.Run(matrixConfig(m), m.Machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Machines)*len(m.Workloads) {
		t.Fatalf("farm cells cover %d points, want %d", len(got), len(m.Machines)*len(m.Workloads))
	}
	for p, s := range got {
		w := want.Get(p.machine, p.workload)
		if w == nil {
			t.Fatalf("experiments.Run has no point %s/%s", p.machine, p.workload)
		}
		if s.N() != w.IPC.N() || s.Mean() != w.IPC.Mean() {
			t.Fatalf("%s/%s: farm IPC n=%d mean=%v, Run n=%d mean=%v",
				p.machine, p.workload, s.N(), s.Mean(), w.IPC.N(), w.IPC.Mean())
		}
	}
}

func testMatrixSpec() *MatrixSpec {
	return &MatrixSpec{
		Machines:  []string{"baseline", "no-recent-snoop"},
		Workloads: []string{"gzip", "ocean"},
		UniInstr:  3000, MPInstr: 400, MPCores: 2, Samples: 2, Seed: 5,
	}
}

// matrixConfig is the experiments.Run configuration that m describes.
func matrixConfig(m *MatrixSpec) experiments.Config {
	return experiments.Config{
		UniInstr: m.UniInstr, MPInstr: m.MPInstr, MPCores: m.MPCores,
		Samples: m.Samples, Seed: m.Seed, Workloads: m.Workloads,
	}
}

// TestSweepJournalsAreFarmCaches: the CLI sweeps' checkpoint journals
// key their cells as the farm's cache does. A journaled litmus.Sweep
// over testSpec()'s litmus section and a journaled experiments.Run
// over TestMatrixCellsMatchRun's matrix spec hold exactly the keys
// Cell.Key derives for the same cells, and under each key the bytes
// Cell.Execute returns.
func TestSweepJournalsAreFarmCaches(t *testing.T) {
	dir := t.TempDir()
	l := testSpec().Litmus
	lo := litmusSweepOptions(t, l)
	lo.Checkpoint = filepath.Join(dir, "litmus.jsonl")
	if _, err := litmus.Sweep(lo); err != nil {
		t.Fatal(err)
	}
	m := testMatrixSpec()
	mc := matrixConfig(m)
	mc.Checkpoint = filepath.Join(dir, "matrix.jsonl")
	if _, err := experiments.Run(mc, m.Machines); err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []struct {
		journal string
		spec    JobSpec
	}{{lo.Checkpoint, JobSpec{Litmus: l}}, {mc.Checkpoint, JobSpec{Matrix: m}}} {
		cells, err := sweep.spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		j, err := par.OpenJournal(sweep.journal, cachekey.Version())
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, c := range cells {
			key, err := c.Key()
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
			var held json.RawMessage
			if !j.Lookup(key, &held) {
				t.Fatalf("%s lacks cell %+v under its key %s", sweep.journal, c, key)
			}
			raw, err := c.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(held, raw) {
				t.Fatalf("cell %+v: journal holds\n%s\nExecute returns\n%s", c, held, raw)
			}
		}
		sort.Strings(keys)
		if got := j.Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("%s holds keys\n%v\nthe farm's cells key as\n%v", sweep.journal, got, keys)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
