package system

import (
	"strings"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/fault"
	"vbmo/internal/pipeline"
	"vbmo/internal/workload"
)

func mustWork(t testing.TB, name string) workload.Params {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return w
}

// TestWatchdogDetectsLivelock builds a synthetic livelock: every
// premature load value is corrupted (rate 1.0), the machine squashes and
// refetches the load itself on replay mismatch, and the forward-progress
// rule that would mark the refetched load no-replay is suppressed. The
// refetched load corrupts again, mismatches again, squashes again —
// forever. The watchdog must convert that into a structured deadlock
// report instead of a hung process.
func TestWatchdogDetectsLivelock(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	cfg.SquashIncludesLoad = true
	work := mustWork(t, "gzip")
	opt := Options{
		Cores: 1, Seed: 42,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.LoadValue, fault.SuppressRule3},
			Rate:  1.0, Seed: 7,
		},
		WatchdogCycles: 2000,
	}
	s := New(cfg, work, opt)
	res := s.Run(50000, opt)
	if s.Deadlock == nil {
		t.Fatalf("no deadlock declared (committed %d, cycles %d)", res.Pipe.Committed, res.Cycles)
	}
	rep := s.Deadlock
	if rep.Cycle-rep.LastCommitCycle < rep.Window {
		t.Fatalf("report window inconsistent: %+v", rep)
	}
	if len(rep.Cores) != 1 {
		t.Fatalf("report has %d core dumps, want 1", len(rep.Cores))
	}
	text := rep.String()
	if !strings.Contains(text, "no instruction committed") || !strings.Contains(text, "rob=") {
		t.Fatalf("report text lacks ROB/LSQ state:\n%s", text)
	}
	// Issue-queue wait state: a fully dumped ROB accounts for the
	// header's iq count, and a queued entry's line shows how many
	// producers it still waits on. This livelock drains the ROB between
	// refetches; TestLostWakeupInDeadlockReport (internal/pipeline)
	// drives a stuck queue entry into a real report.
	d := rep.Cores[0]
	queued := 0
	for _, e := range d.ROB {
		if e.InIQ {
			queued++
		}
	}
	if d.ROBLen <= wdDumpROB && queued != d.IQLen {
		t.Fatalf("dump lists %d queued entries, header iq=%d:\n%s", queued, d.IQLen, text)
	}
	d.ROB = []pipeline.EntryDump{{Tag: 7, Class: "int-alu", InIQ: true, Waiting: 1}}
	if line := "tag=7 pc=0x0 int-alu iq[waiting=1]"; !strings.Contains(d.String(), line) {
		t.Fatalf("queued entry renders without %q:\n%s", line, d.String())
	}
	// The run must have stopped at the watchdog, not the commit target.
	if res.Pipe.Committed >= 50000 {
		t.Fatal("livelocked run reached its commit target")
	}
}

// TestWatchdogCleanRunNoDeadlock: a healthy run with the watchdog armed
// completes normally with no report and no storms.
func TestWatchdogCleanRunNoDeadlock(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	work := mustWork(t, "gzip")
	opt := Options{Cores: 1, Seed: 42, WatchdogCycles: 2000}
	s := New(cfg, work, opt)
	res := s.Run(20000, opt)
	if s.Deadlock != nil {
		t.Fatalf("spurious deadlock: %s", s.Deadlock)
	}
	if res.Pipe.Committed < 20000 {
		t.Fatalf("committed %d of 20000", res.Pipe.Committed)
	}
	if wd := s.Watchdog(); wd.Storms != 0 {
		t.Fatalf("spurious storms: %+v", wd)
	}
}

// TestWatchdogThrottlesSquashStorm: corrupting every premature load on
// the replay-all machine (without the livelock ingredients) makes every
// verifiable load mismatch and squash — a replay-squash storm. The
// watchdog must detect it and throttle fetch, and the run must still
// reach its commit target (rule 3 marks refetched loads no-replay, so
// each load makes progress on its second trip).
func TestWatchdogThrottlesSquashStorm(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	work := mustWork(t, "gzip")
	opt := Options{
		Cores: 1, Seed: 42,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.LoadValue},
			Rate:  1.0, Seed: 7,
		},
		WatchdogCycles: 100000,
	}
	s := New(cfg, work, opt)
	res := s.Run(20000, opt)
	if s.Deadlock != nil {
		t.Fatalf("storm escalated to deadlock: %s", s.Deadlock)
	}
	if res.Pipe.Committed < 20000 {
		t.Fatalf("committed %d of 20000", res.Pipe.Committed)
	}
	wd := s.Watchdog()
	if wd.Storms == 0 {
		t.Fatal("no storm detected despite rate-1.0 corruption")
	}
	if wd.MaxBackoff < wdBackoffBase {
		t.Fatalf("no backoff applied: %+v", wd)
	}
}

// TestFaultDetectionReplayAll is the tentpole assertion at system
// level: on the replay-all machine every injected value corruption is
// detected (replay mismatch), vacated (killed by an unrelated squash
// before verification), or still in flight at end of run — never
// committed unverified.
func TestFaultDetectionReplayAll(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	work := mustWork(t, "gzip")
	opt := Options{
		Cores: 1, Seed: 42,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.LoadValue, fault.CacheData},
			Rate:  0.01, Seed: 99,
		},
	}
	s := New(cfg, work, opt)
	s.Run(30000, opt)
	st := s.Faults.Stats
	if st.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if st.Missed != 0 {
		t.Fatalf("replay-all missed %d corruptions: %s", st.Missed, s.Faults.Summary())
	}
	if st.Detected == 0 {
		t.Fatalf("nothing detected: %s", s.Faults.Summary())
	}
	if s.Faults.Lat.Mean() <= 0 {
		t.Fatal("detection latency histogram empty")
	}
}

// TestFaultEscapeBaseline is the contrast: the baseline machine never
// replays, so corruptions commit undetected — the injector must report
// them as misses, not silently lose them.
func TestFaultEscapeBaseline(t *testing.T) {
	cfg := config.Baseline()
	work := mustWork(t, "gzip")
	opt := Options{
		Cores: 1, Seed: 42,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.LoadValue},
			Rate:  0.01, Seed: 99,
		},
	}
	s := New(cfg, work, opt)
	s.Run(30000, opt)
	st := s.Faults.Stats
	if st.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if st.Missed == 0 {
		t.Fatalf("baseline detected corruption it cannot detect? %s", s.Faults.Summary())
	}
	if st.Detected != 0 {
		t.Fatalf("baseline has no replay, detected must be 0: %s", s.Faults.Summary())
	}
}

// TestMessageFaultsAccounted: drop/delay interference on an MP run is
// counted, and a dropped or delayed notification must never corrupt
// architectural state in a way the checker attributes to the program —
// the run completes.
func TestMessageFaultsAccounted(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	work := mustWork(t, "ocean")
	// Cross-core snoop invalidations are rare in this workload (a few
	// per run), so interference runs at rate 1.0 to touch them all.
	opt := Options{
		Cores: 4, Seed: 42,
		DMAInterval: 400, DMABurst: 2,
		Fault: &fault.Config{
			Kinds: []fault.Kind{fault.DropSnoop, fault.DelayFill},
			Rate:  1.0, Seed: 5, Delay: 8,
		},
	}
	s := New(cfg, work, opt)
	res := s.Run(3000, opt)
	if res.Pipe.Committed < 12000 {
		t.Fatalf("committed %d of 12000", res.Pipe.Committed)
	}
	st := s.Faults.Stats
	if st.Dropped == 0 || st.Delayed == 0 {
		t.Fatalf("no message interference recorded: %s", s.Faults.Summary())
	}
}

// TestFaultDisabledIsFree: a nil fault config must leave the system
// without an injector (the hooks are all nil-guarded; bit-identity of
// the reference outputs is asserted by the CLI-level checks).
func TestFaultDisabledIsFree(t *testing.T) {
	cfg := config.Replay(core.ReplayAll)
	work := mustWork(t, "gzip")
	opt := Options{Cores: 1, Seed: 42}
	s := New(cfg, work, opt)
	if s.Faults != nil {
		t.Fatal("injector built with faults disabled")
	}
	s.Run(1000, opt)
}
