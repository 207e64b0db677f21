package litmus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vbmo/internal/fault"
)

// sweepForResume is the shared scope: two tests, all configs, fault
// injection on (so the fault counters are part of what must survive the
// journal round trip).
func resumeOpts(t *testing.T, checkpoint string) SweepOptions {
	t.Helper()
	var tests []*Test
	for _, name := range []string{"SB", "MP"} {
		tt, ok := ByName(name)
		if !ok {
			t.Fatalf("no test %s", name)
		}
		tests = append(tests, tt)
	}
	return SweepOptions{
		Tests: tests, Configs: Configs(),
		Runs: 40, Workers: 4, Seed: 1,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.LoadValue},
			Rate:  0.05, Seed: 11,
		},
		Checkpoint: checkpoint,
	}
}

// mustSweep fails the test on a sweep infrastructure error.
func mustSweep(t *testing.T, o SweepOptions) []Verdict {
	t.Helper()
	vs, err := Sweep(o)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestSweepResumeDeterminism: verdicts from a sweep resumed off a
// partially-written journal must be bit-identical to an uninterrupted
// sweep, fault counters included.
func TestSweepResumeDeterminism(t *testing.T) {
	clean := mustSweep(t, resumeOpts(t, ""))

	journal := filepath.Join(t.TempDir(), "litmus.jsonl")
	full := mustSweep(t, resumeOpts(t, journal))
	if !reflect.DeepEqual(clean, full) {
		t.Fatal("journaled sweep diverges from plain sweep")
	}

	// Tear the journal: header + first third of the records, then a
	// torn trailing line.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	start := 0
	for i, c := range raw {
		if c == '\n' {
			lines = append(lines, raw[start:i+1])
			start = i + 1
		}
	}
	if len(lines) < 4 {
		t.Fatalf("journal too small to tear (%d lines)", len(lines))
	}
	var torn []byte
	for _, l := range lines[:1+(len(lines)-1)/3] {
		torn = append(torn, l...)
	}
	torn = append(torn, []byte(`{"key":"torn"`)...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := mustSweep(t, resumeOpts(t, journal))
	if !reflect.DeepEqual(clean, resumed) {
		for i := range clean {
			if !reflect.DeepEqual(clean[i], resumed[i]) {
				t.Errorf("verdict %d diverges:\n clean   %+v\n resumed %+v", i, clean[i], resumed[i])
			}
		}
		t.Fatal("resumed sweep diverges from uninterrupted sweep")
	}
}

// TestSweepFaultSeedIsolation: the same sweep with a different fault
// seed must (at this rate) interfere differently, proving per-run fault
// streams actually derive from the configured seed rather than being
// shared or ignored.
func TestSweepFaultSeedIsolation(t *testing.T) {
	a := mustSweep(t, resumeOpts(t, ""))
	o := resumeOpts(t, "")
	o.Fault.Seed = 999
	b := mustSweep(t, o)
	var ia, ib uint64
	for i := range a {
		ia += a[i].FaultInjected
		ib += b[i].FaultInjected
	}
	if ia == 0 || ib == 0 {
		t.Fatalf("no injections (a=%d b=%d)", ia, ib)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different fault seeds produced identical sweeps")
	}
}

// TestSweepResumeMissesChangedMachine: a journal keys each cell by the
// content of its machine, not by the column's name. Re-sweeping SB on
// a journal written under nrs+nus, with a column of the same name that
// now holds nus-only's machine, must simulate that machine again and
// find its forbidden outcomes, not replay nrs+nus's clean verdict.
func TestSweepResumeMissesChangedMachine(t *testing.T) {
	sb, _ := ByName("SB")
	nrs, _ := ConfigByName("nrs+nus")
	nus, _ := ConfigByName("nus-only")
	renamed := Config{Name: nrs.Name, Machine: nus.Machine, Sound: nrs.Sound}
	opts := func(c Config, checkpoint string) SweepOptions {
		return SweepOptions{
			Tests: []*Test{sb}, Configs: []Config{c},
			Runs: 200, Seed: 1, Checkpoint: checkpoint,
		}
	}

	journal := filepath.Join(t.TempDir(), "litmus.jsonl")
	mustSweep(t, opts(nrs, journal))
	resumed := mustSweep(t, opts(renamed, journal))
	fresh := mustSweep(t, opts(renamed, ""))
	if fresh[0].Forbidden == 0 {
		t.Fatalf("nus-only's machine found no forbidden SB outcome in 200 runs: %+v", fresh[0])
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("sweep resumed after the machine changed replayed the old verdict:\n resumed %+v\n fresh   %+v",
			resumed[0], fresh[0])
	}
}
