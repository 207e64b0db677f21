// Tests for the quiescence fast-forward (DESIGN.md §12). The contract
// under test is bit-identity: a run with cycle skipping enabled must
// produce exactly the same Result — counters, pipeline statistics,
// cycle count, trace event counts, metrics snapshots — as the same run
// stepped cycle by cycle, across the whole machine registry and at
// every supported core count.

package system

import (
	"reflect"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/fault"
	"vbmo/internal/pipeline"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// ffPair runs the same (machine, workload, cores, seed) twice — once
// with fast-forward enabled (the default) and once with it disabled —
// and returns both systems and their run results.
func ffPair(t *testing.T, cfg config.Machine, workName string, cores int, insts uint64, snapshot int64) (on, off *System, resOn, resOff Result, csOn, csOff *trace.CountSink) {
	t.Helper()
	work, ok := workload.ByName(workName)
	if !ok {
		t.Fatalf("unknown workload %q", workName)
	}
	run := func(noFF bool) (*System, Result, *trace.CountSink) {
		cs := &trace.CountSink{}
		opt := Options{
			Cores: cores, Seed: 42,
			DMAInterval: 4000, DMABurst: 2,
			SnapshotInterval: snapshot,
			NoFastForward:    noFF,
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

// assertFFIdentical asserts the two runs of a pair are bit-identical.
func assertFFIdentical(t *testing.T, on, off *System, resOn, resOff Result, csOn, csOff *trace.CountSink) {
	t.Helper()
	if off.FastForwardStats() != (FFStats{}) {
		t.Errorf("disabled run reports fast-forward activity: %+v", off.FastForwardStats())
	}
	if on.CycleNum != off.CycleNum {
		t.Errorf("CycleNum diverged: ff=%d plain=%d", on.CycleNum, off.CycleNum)
	}
	if !reflect.DeepEqual(resOn, resOff) {
		t.Errorf("Result diverged:\n ff:    %+v\n plain: %+v", resOn, resOff)
	}
	if !reflect.DeepEqual(resOn.Counters, resOff.Counters) {
		t.Errorf("Counters diverged:\n ff:    %v\n plain: %v", resOn.Counters, resOff.Counters)
	}
	if csOn.Total() != csOff.Total() {
		t.Errorf("trace event totals diverged: ff=%d plain=%d", csOn.Total(), csOff.Total())
	}
	for _, k := range []trace.Kind{
		trace.KLoadIssue, trace.KFilterDecision, trace.KReplay,
		trace.KValueMismatch, trace.KSquash, trace.KSnoopInval,
		trace.KExtFill, trace.KDMAWrite, trace.KROBOcc, trace.KWatchdog,
	} {
		if a, b := csOn.Count(k), csOff.Count(k); a != b {
			t.Errorf("trace kind %v count diverged: ff=%d plain=%d", k, a, b)
		}
	}
	if !reflect.DeepEqual(on.Metrics, off.Metrics) {
		t.Errorf("metrics snapshots diverged")
	}
}

// TestFastForwardBitIdenticalRegistry sweeps every registered machine:
// skipping must be invisible in every output.
func TestFastForwardBitIdenticalRegistry(t *testing.T) {
	for _, name := range config.Names() {
		cfg, ok := config.ByName(name)
		if !ok {
			t.Fatalf("registry lists unknown machine %q", name)
		}
		t.Run(name, func(t *testing.T) {
			on, off, resOn, resOff, csOn, csOff := ffPair(t, cfg, "mcf", 1, 4000, 0)
			assertFFIdentical(t, on, off, resOn, resOff, csOn, csOff)
		})
	}
}

// TestFastForwardBitIdenticalMulti covers the lock-step multiprocessor
// at 4 and at the full 16-way configuration, and snapshot sampling.
func TestFastForwardBitIdenticalMulti(t *testing.T) {
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, ok := config.ByName(tc.machine)
			if !ok {
				t.Fatalf("unknown machine %q", tc.machine)
			}
			on, off, resOn, resOff, csOn, csOff := ffPair(t, cfg, tc.work, tc.cores, tc.insts, tc.snapshot)
			assertFFIdentical(t, on, off, resOn, resOff, csOn, csOff)
		})
	}
}

// TestFastForwardEngagesOnSpin asserts the skip actually fires on the
// latency-bound workload it was built for — a guard against the
// predicate silently degrading into "never quiescent".
func TestFastForwardEngagesOnSpin(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	on, off, resOn, resOff, csOn, csOff := ffPair(t, cfg, "spin", 1, 3000, 0)
	assertFFIdentical(t, on, off, resOn, resOff, csOn, csOff)
	ff := on.FastForwardStats()
	if ff.Windows == 0 || ff.SkippedCycles == 0 {
		t.Fatalf("fast-forward never engaged on spin: %+v", ff)
	}
	if frac := float64(ff.SkippedCycles) / float64(on.CycleNum); frac < 0.30 {
		t.Errorf("fast-forward skipped only %.1f%% of spin cycles (%d of %d)",
			100*frac, ff.SkippedCycles, on.CycleNum)
	}
}

// TestFastForwardDisabledByHook asserts the per-cycle perturbation hook
// suspends skipping entirely (fault campaigns observe every cycle).
func TestFastForwardDisabledByHook(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42, OnCycle: func(int64) {}}
	s := New(cfg, work, opt)
	s.Run(500, opt)
	if s.FastForwardStats() != (FFStats{}) {
		t.Errorf("fast-forward engaged with OnCycle set: %+v", s.FastForwardStats())
	}
}

// TestQuiescentMeansStepSkips holds the fast-forward's idle test to the
// stage-skip layer's: whenever Quiescent reports a core idle, the Step
// that follows must skip every back-end stage (replay on value-replay
// machines only) and leave the queues and the commit count as they
// were. The cores are stepped by hand in Advance's order, fast-forward
// off, with each core probed immediately before its own Step, since an
// earlier core's Step can reach it through coherence.
func TestQuiescentMeansStepSkips(t *testing.T) {
	type cell struct {
		machine, work string
		cores         int
		insts         uint64
	}
	var cells []cell
	for _, name := range config.Names() {
		cells = append(cells, cell{name, "mcf", 1, 20000}, cell{name, "ocean", 4, 3000})
	}
	cells = append(cells,
		cell{"baseline", "spin-mp", 16, 1500},
		cell{"no-recent-snoop", "spin-mp", 16, 1500},
		cell{"replay-all", "jbb-mp", 16, 1500},
	)
	type view struct {
		skip            pipeline.SkipStats
		rob, iq, lq, sq int
		committed       uint64
	}
	look := func(c *pipeline.Core) view {
		return view{c.Skip, c.ROBLen(), c.IQLen(), c.LQLen(), c.SQLen(), c.Stats.Committed}
	}
	for _, tc := range cells {
		cfg, _ := config.ByName(tc.machine)
		t.Run(tc.machine+"/"+tc.work, func(t *testing.T) {
			opt := Options{Cores: tc.cores, Seed: 3, DMAInterval: 4000, DMABurst: 2}
			s := New(cfg, mustWork(t, tc.work), opt)
			replay := cfg.Scheme == config.ValueReplay
			steps, quiet, bad := 0, 0, 0
			for limit := int64(tc.insts)*200 + 1_000_000; s.CycleNum < limit; s.CycleNum++ {
				done := true
				for _, c := range s.Cores {
					done = done && c.Stats.Committed >= tc.insts
				}
				if done {
					break
				}
				s.DMA.Tick(s.CycleNum)
				for _, c := range s.Cores {
					if c.Stats.Committed >= tc.insts {
						continue
					}
					_, ok := c.Quiescent()
					before := look(c)
					c.Step()
					steps++
					if !ok {
						continue
					}
					quiet++
					after := look(c)
					want := before
					want.skip.Writeback++
					want.skip.Capture++
					want.skip.Commit++
					want.skip.Issue++
					if replay {
						want.skip.Replay++
					}
					if after != want && bad < 3 {
						bad++
						t.Errorf("cycle %d core %d: Quiescent reported idle, but Step went from %+v to %+v",
							s.CycleNum, c.ID, before, after)
					}
				}
			}
			if quiet == 0 {
				t.Errorf("no quiescent core-step in %d", steps)
			}
			t.Logf("%d of %d core-steps quiescent", quiet, steps)
		})
	}
}

// TestFastForwardProbeBound runs the two fast-forward windows of
// TestSpeedLayersAddNoWork, a warmed window of baseline spin/1 and of
// spin-mp/16, and bounds the fast-forward by counts, which are the same
// on every host: the skip must cover most of the window, and Advance
// may make at most one per-core Quiescent probe per skipped core-cycle.
func TestFastForwardProbeBound(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	for _, tc := range []struct {
		work         string
		cores        int
		warm, window uint64
		minSkipped   float64
	}{
		{"spin", 1, 2000, 20000, 0.90},
		{"spin-mp", 16, 300, 1200, 0.50},
	} {
		t.Run(tc.work, func(t *testing.T) {
			opt := Options{Cores: tc.cores, Seed: 1, DMAInterval: 4000, DMABurst: 2}
			s := New(cfg, mustWork(t, tc.work), opt)
			s.Advance(tc.warm, opt)
			s.ResetStats()
			ff0, cyc0 := s.FastForwardStats(), s.CycleNum
			s.Advance(tc.window, opt)
			ff := s.FastForwardStats()
			cycles := s.CycleNum - cyc0
			skipped := ff.SkippedCycles - ff0.SkippedCycles
			probes := ff.Probes - ff0.Probes
			if frac := float64(skipped) / float64(cycles); frac < tc.minSkipped {
				t.Errorf("fast-forward skipped %d of %d window cycles (%.1f%%), want >= %.0f%%",
					skipped, cycles, 100*frac, 100*tc.minSkipped)
			}
			if bound := int64(tc.cores) * skipped; probes > bound {
				t.Errorf("%d Quiescent probes, more than cores x skipped cycles = %d", probes, bound)
			}
			t.Logf("skipped %d of %d window cycles with %d probes", skipped, cycles, probes)
		})
	}
}

// findQuiescent steps the system cycle by cycle (mirroring Advance's
// order: DMA tick, core steps, cycle increment) until every core
// reports quiescent and no machine event is due, then returns.
func findQuiescent(t *testing.T, s *System) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		quiet := true
		for _, c := range s.Cores {
			if _, ok := c.Quiescent(); !ok {
				quiet = false
				break
			}
		}
		if quiet && (s.DMA == nil || s.DMA.NextAt() > s.CycleNum) {
			return
		}
		if s.DMA != nil {
			s.DMA.Tick(s.CycleNum)
		}
		for _, c := range s.Cores {
			c.Step()
		}
		s.CycleNum++
	}
	t.Fatal("no quiescent instant found in 200000 cycles")
}

// TestFastForwardNeverCrossesFaultDelivery asserts tryFastForward's
// wake-event caps directly: a deferred fault message bounds the skip,
// and a message due this cycle vetoes it outright.
func TestFastForwardNeverCrossesFaultDelivery(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42}
	s := New(cfg, work, opt)
	s.Faults = fault.NewInjector(fault.Config{}, nil)
	findQuiescent(t, s)

	start := s.CycleNum
	due := start + 7
	s.Faults.Defer(due, func() {})
	if !s.tryFastForward(^uint64(0), start+1_000_000) {
		t.Fatal("expected a skip from a quiescent instant")
	}
	if s.CycleNum > due {
		t.Fatalf("skip crossed a deferred fault delivery: now=%d due=%d", s.CycleNum, due)
	}
	if s.CycleNum <= start {
		t.Fatalf("skip did not advance: now=%d start=%d", s.CycleNum, start)
	}

	// A delivery due this cycle must veto the skip entirely.
	s.Faults.Defer(s.CycleNum, func() {})
	at := s.CycleNum
	if s.tryFastForward(^uint64(0), at+1_000_000) {
		t.Fatalf("skipped across a delivery due this cycle (now=%d)", s.CycleNum)
	}
	if s.CycleNum != at {
		t.Fatalf("vetoed skip still moved the clock: %d -> %d", at, s.CycleNum)
	}
}

// benchSpin measures simulated instructions per wall-second on the
// latency-bound spin workload with or without fast-forward. The pair
// is for reading by hand; the fast-forward is gated on counts
// (TestFastForwardProbeBound, TestSpeedLayersAddNoWork).
func benchSpin(b *testing.B, noFF bool) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	const insts = 20000
	for i := 0; i < b.N; i++ {
		opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2, NoFastForward: noFF}
		s := New(cfg, work, opt)
		s.Run(insts, opt)
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkSpinFastForward(b *testing.B) { benchSpin(b, false) }
func BenchmarkSpinPlain(b *testing.B)       { benchSpin(b, true) }

// TestFastForwardNeverCrossesDMABurst asserts the DMA agent's schedule
// bounds the skip the same way.
func TestFastForwardNeverCrossesDMABurst(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("spin")
	opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
	s := New(cfg, work, opt)
	findQuiescent(t, s)

	next := s.DMA.NextAt()
	if next <= s.CycleNum {
		t.Fatalf("findQuiescent returned with a due burst: next=%d now=%d", next, s.CycleNum)
	}
	if !s.tryFastForward(^uint64(0), s.CycleNum+1_000_000) {
		t.Fatal("expected a skip from a quiescent instant")
	}
	if s.CycleNum > next {
		t.Fatalf("skip crossed a scheduled DMA burst: now=%d next=%d", s.CycleNum, next)
	}
}
