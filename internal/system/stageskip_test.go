// Tests for the per-stage readiness skip layer (DESIGN.md §14). The
// contract mirrors the quiescence fast-forward's: a run with stage
// skipping enabled must produce exactly the same Result — counters,
// pipeline statistics, cycle count, trace event counts, metrics
// snapshots — as the same run with every stage scanned every cycle,
// across the whole machine registry and at every supported core count.

package system

import (
	"reflect"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/pipeline"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// skipPair runs the same (machine, workload, cores, seed) twice — once
// with stage skipping enabled (the default) and once with it disabled —
// and returns both systems and their run results. Fast-forward stays at
// its default in both runs: the layers must compose.
func skipPair(t *testing.T, cfg config.Machine, workName string, cores int, insts uint64, snapshot int64) (on, off *System, resOn, resOff Result, csOn, csOff *trace.CountSink) {
	t.Helper()
	work, ok := workload.ByName(workName)
	if !ok {
		t.Fatalf("unknown workload %q", workName)
	}
	run := func(noSkip bool) (*System, Result, *trace.CountSink) {
		cs := &trace.CountSink{}
		opt := Options{
			Cores: cores, Seed: 42,
			DMAInterval: 4000, DMABurst: 2,
			SnapshotInterval: snapshot,
			NoStageSkip:      noSkip,
			Trace:            trace.New(cs),
		}
		s := New(cfg, work, opt)
		res := s.Run(insts, opt)
		return s, res, cs
	}
	on, resOn, csOn = run(false)
	off, resOff, csOff = run(true)
	return
}

// assertSkipIdentical asserts the two runs of a pair are bit-identical.
func assertSkipIdentical(t *testing.T, on, off *System, resOn, resOff Result, csOn, csOff *trace.CountSink) {
	t.Helper()
	if off.StageSkipStats() != (pipeline.SkipStats{}) {
		t.Errorf("disabled run reports stage-skip activity: %+v", off.StageSkipStats())
	}
	if on.CycleNum != off.CycleNum {
		t.Errorf("CycleNum diverged: skip=%d plain=%d", on.CycleNum, off.CycleNum)
	}
	if !reflect.DeepEqual(resOn, resOff) {
		t.Errorf("Result diverged:\n skip:  %+v\n plain: %+v", resOn, resOff)
	}
	if !reflect.DeepEqual(resOn.Counters, resOff.Counters) {
		t.Errorf("Counters diverged:\n skip:  %v\n plain: %v", resOn.Counters, resOff.Counters)
	}
	if csOn.Total() != csOff.Total() {
		t.Errorf("trace event totals diverged: skip=%d plain=%d", csOn.Total(), csOff.Total())
	}
	for _, k := range []trace.Kind{
		trace.KLoadIssue, trace.KFilterDecision, trace.KReplay,
		trace.KValueMismatch, trace.KSquash, trace.KSnoopInval,
		trace.KExtFill, trace.KDMAWrite, trace.KROBOcc, trace.KWatchdog,
	} {
		if a, b := csOn.Count(k), csOff.Count(k); a != b {
			t.Errorf("trace kind %v count diverged: skip=%d plain=%d", k, a, b)
		}
	}
	if !reflect.DeepEqual(on.Metrics, off.Metrics) {
		t.Errorf("metrics snapshots diverged")
	}
}

// TestStageSkipBitIdenticalRegistry sweeps every registered machine:
// per-stage skipping must be invisible in every output. mcf's mix
// exercises loads, stores, branches, and (on the replay machines) the
// replay scan cursor.
func TestStageSkipBitIdenticalRegistry(t *testing.T) {
	for _, name := range config.Names() {
		cfg, ok := config.ByName(name)
		if !ok {
			t.Fatalf("registry lists unknown machine %q", name)
		}
		t.Run(name, func(t *testing.T) {
			on, off, resOn, resOff, csOn, csOff := skipPair(t, cfg, "mcf", 1, 4000, 0)
			assertSkipIdentical(t, on, off, resOn, resOff, csOn, csOff)
		})
	}
}

// TestStageSkipBitIdenticalMulti covers the lock-step multiprocessor at
// 4 and at the full 16-way configuration, snapshot sampling, and the
// fast-forward-heavy spin shape where both skip layers interleave.
func TestStageSkipBitIdenticalMulti(t *testing.T) {
	cases := []struct {
		name, machine, work string
		cores               int
		insts               uint64
		snapshot            int64
	}{
		{"ocean-4", "baseline", "ocean", 4, 1500, 0},
		{"ocean-snoop-4", "no-recent-snoop", "ocean", 4, 1500, 0},
		{"spin-mp-16", "baseline", "spin-mp", 16, 600, 0},
		{"gzip-snapshots", "baseline", "gzip", 1, 6000, 512},
		{"spin-ff-interleaved", "baseline", "spin", 1, 3000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, ok := config.ByName(tc.machine)
			if !ok {
				t.Fatalf("unknown machine %q", tc.machine)
			}
			on, off, resOn, resOff, csOn, csOff := skipPair(t, cfg, tc.work, tc.cores, tc.insts, tc.snapshot)
			assertSkipIdentical(t, on, off, resOn, resOff, csOn, csOff)
		})
	}
}

// TestStageSkipEngagesOnGzip asserts the readiness layer actually
// elides scans on the busy high-IPC workload it was built for — a
// guard against the quiet flags silently degrading into "never set" —
// and that no stage's predicate degrades into "always quiet": each of
// the writeback, capture, commit and issue scans is skipped on more
// than 1% and fewer than 99.9% of core-cycles.
func TestStageSkipEngagesOnGzip(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	on, off, resOn, resOff, csOn, csOff := skipPair(t, cfg, "gzip", 1, 20000, 0)
	assertSkipIdentical(t, on, off, resOn, resOff, csOn, csOff)
	sk := on.StageSkipStats()
	if sk.Total() == 0 {
		t.Fatalf("stage skip never engaged on gzip: %+v", sk)
	}
	cc := float64(resOn.Pipe.Cycles)
	for _, st := range []struct {
		name string
		n    uint64
	}{
		{"writeback", sk.Writeback},
		{"capture", sk.Capture},
		{"commit", sk.Commit},
		{"issue", sk.Issue},
	} {
		if frac := float64(st.n) / cc; frac <= 0.01 || frac >= 0.999 {
			t.Errorf("stage %s skipped on %d of %.0f core-cycles (%.2f%%), want within (1%%, 99.9%%)",
				st.name, st.n, cc, 100*frac)
		}
		t.Logf("stage %s skipped on %.1f%% of core-cycles", st.name, 100*float64(st.n)/cc)
	}
}

// TestStageSkipReplayCursor asserts the replay scan sleeps on the
// replay machines: between replay bursts the scan waits on its wake
// cycle or an event, so it runs on a stepped cycle (fast-forwarded
// cycles never reach the stage scans) only when Step does not skip it.
// Each cell's scan runs, stepped cycles less Skip.Replay, are held to
// the count the wake cycle and settled-prefix cursor reach; a change
// that runs the scan once more fails, one that fast-forwards the idle
// cycles it used to skip does not.
func TestStageSkipReplayCursor(t *testing.T) {
	for _, tc := range []struct {
		machine, work string
		maxRuns       int64
	}{
		{"replay-all", "gzip", 13157},
		{"replay-all", "mcf", 17326},
		{"no-recent-snoop", "mcf", 12798},
	} {
		t.Run(tc.machine+"/"+tc.work, func(t *testing.T) {
			cfg, ok := config.ByName(tc.machine)
			if !ok {
				t.Fatalf("unknown machine %q", tc.machine)
			}
			on, off, resOn, resOff, csOn, csOff := skipPair(t, cfg, tc.work, 1, 20000, 0)
			assertSkipIdentical(t, on, off, resOn, resOff, csOn, csOff)
			stepped := on.CycleNum - on.FastForwardStats().SkippedCycles
			sk := on.StageSkipStats()
			runs := stepped - int64(sk.Replay)
			if runs > tc.maxRuns {
				t.Errorf("replay scan ran on %d of %d stepped cycles, want <= %d: %+v",
					runs, stepped, tc.maxRuns, sk)
			}
			t.Logf("replay scan ran on %d of %d stepped cycles", runs, stepped)
		})
	}
}
