package system

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// tracedRun is one finished run with a CountSink attached.
type tracedRun struct {
	cs  *trace.CountSink
	s   *System
	res Result
}

// runTraced runs one configuration with a CountSink attached.
func runTraced(t *testing.T, cfg config.Machine, workName string, cores int, insts uint64) tracedRun {
	t.Helper()
	work, ok := workload.ByName(workName)
	if !ok {
		t.Fatalf("unknown workload %q", workName)
	}
	cs := &trace.CountSink{}
	opt := Options{Cores: cores, Seed: 42, DMAInterval: 4000, DMABurst: 2,
		Trace: trace.New(cs)}
	s := New(cfg, work, opt)
	return tracedRun{cs, s, s.Run(insts, opt)}
}

// checkAgreement asserts the DESIGN.md §6 contract: each lifecycle event
// kind's count equals the end-of-run counter it mirrors, and each squash
// reason's count its own squash counter.
func checkAgreement(t *testing.T, r tracedRun) {
	t.Helper()
	cs, res := r.cs, r.res
	p := res.Pipe
	if got, want := cs.Count(trace.KLoadIssue), p.DemandLoadAccesses+p.ForwardedLoads; got != want {
		t.Errorf("KLoadIssue count = %d, want demand+forwarded = %d", got, want)
	}
	if got, want := cs.Count(trace.KReplay), p.ReplayAccesses; got != want {
		t.Errorf("KReplay count = %d, want ReplayAccesses = %d", got, want)
	}
	if got, want := cs.Count(trace.KFilterDecision), res.Counters.Get("replay.loads_seen"); got != want {
		t.Errorf("KFilterDecision count = %d, want replay.loads_seen = %d", got, want)
	}
	if got, want := cs.Count(trace.KValueMismatch), res.Counters.Get("replay.mismatches"); got != want {
		t.Errorf("KValueMismatch count = %d, want replay.mismatches = %d", got, want)
	}
	squashes := p.SquashesMispredict + p.SquashesRAW + p.SquashesInval +
		p.SquashesLoadIssue + p.SquashesReplayRAW + p.SquashesReplayCons + p.SquashesVPred
	if got := cs.Count(trace.KSquash); got != squashes {
		t.Errorf("KSquash count = %d, want sum of squash counters = %d", got, squashes)
	}
	for _, sq := range []struct {
		reason trace.Reason
		n      uint64
	}{
		{trace.RSquashMispredict, p.SquashesMispredict},
		{trace.RSquashRAW, p.SquashesRAW},
		{trace.RSquashInval, p.SquashesInval},
		{trace.RSquashLoadIssue, p.SquashesLoadIssue},
		{trace.RSquashReplayRAW, p.SquashesReplayRAW},
		{trace.RSquashReplayCons, p.SquashesReplayCons},
		{trace.RSquashVPred, p.SquashesVPred},
	} {
		if got := cs.CountReason(sq.reason); got != sq.n {
			t.Errorf("%s squash events = %d, counter = %d", sq.reason, got, sq.n)
		}
	}
	if got, want := cs.Count(trace.KDMAWrite), r.s.Bus.Stats.DMAWrites; got != want {
		t.Errorf("KDMAWrite count = %d, want bus DMAWrites = %d", got, want)
	}
}

func TestTraceCounterAgreementReplayAll(t *testing.T) {
	r := runTraced(t, config.Replay(core.ReplayAll), "gzip", 1, 20000)
	checkAgreement(t, r)
	cs := r.cs
	if cs.Count(trace.KReplay) == 0 {
		t.Error("replay-all run emitted no KReplay events")
	}
	if cs.CountReason(trace.RReplayAll) != cs.Count(trace.KFilterDecision) {
		t.Error("replay-all: every filter decision should carry RReplayAll")
	}
}

func TestTraceCounterAgreementBaseline(t *testing.T) {
	r := runTraced(t, config.Baseline(), "gzip", 1, 20000)
	checkAgreement(t, r)
	cs := r.cs
	// The baseline has no replay engine: no replay-lifecycle events.
	if cs.Count(trace.KFilterDecision) != 0 || cs.Count(trace.KReplay) != 0 {
		t.Error("baseline run must not emit replay-lifecycle events")
	}
	if cs.Count(trace.KDMAWrite) == 0 {
		t.Error("DMA-active run emitted no KDMAWrite events")
	}
}

func TestTraceCounterAgreementMultiprocessor(t *testing.T) {
	r := runTraced(t, config.Replay(core.NoRecentSnoop), "ocean", 4, 4000)
	checkAgreement(t, r)
	cs := r.cs
	if cs.Count(trace.KSnoopInval) == 0 {
		t.Error("4-core coherent run emitted no KSnoopInval events")
	}
	if cs.Count(trace.KExtFill) == 0 {
		t.Error("4-core coherent run emitted no KExtFill events")
	}
}

func TestTraceCounterAgreementVPred(t *testing.T) {
	checkAgreement(t, runTraced(t, config.ReplayVP(core.NoRecentSnoop), "gzip", 1, 20000))
}

func TestSnapshotSampling(t *testing.T) {
	work, _ := workload.ByName("gzip")
	cs := &trace.CountSink{}
	opt := Options{Cores: 1, Seed: 42, SnapshotInterval: 500, Trace: trace.New(cs)}
	s := New(config.Replay(core.ReplayAll), work, opt)
	s.Run(20000, opt)
	if s.Metrics == nil {
		t.Fatal("SnapshotInterval > 0 must create System.Metrics")
	}
	n := uint64(len(s.Metrics.Snapshots))
	if n == 0 {
		t.Fatal("no snapshots recorded")
	}
	if got := s.Metrics.ROB[0].Count(); got != n {
		t.Errorf("ROB histogram has %d samples, want one per snapshot (%d)", got, n)
	}
	// The occupancy counter events mirror the snapshot instants 1:1.
	for _, k := range []trace.Kind{trace.KROBOcc, trace.KLQOcc, trace.KSQOcc} {
		if got := cs.Count(k); got != n {
			t.Errorf("%v count = %d, want %d (one per snapshot)", k, got, n)
		}
	}
	// Interval deltas must sum back to the cumulative totals at the last
	// sample instant (conservation: nothing double-counted or lost).
	var committed uint64
	for _, snap := range s.Metrics.Snapshots {
		committed += snap.Deltas["committed"]
	}
	if committed == 0 || committed > s.Cores[0].Stats.Committed {
		t.Errorf("summed committed deltas = %d, want in (0, %d]",
			committed, s.Cores[0].Stats.Committed)
	}
}

func TestGraphEdgeTracing(t *testing.T) {
	work, _ := workload.ByName("ocean")
	cs := &trace.CountSink{}
	opt := Options{Cores: 2, Seed: 42, TrackConsistency: true, Trace: trace.New(cs)}
	s := New(config.Replay(core.ReplayAll), work, opt)
	s.Run(2000, opt)
	_, cyc, g := s.CheckSC()
	if cyc {
		t.Fatal("replay-all execution must be sequentially consistent")
	}
	if got, want := cs.Count(trace.KGraphEdge), uint64(g.EdgeCount); got != want {
		t.Errorf("KGraphEdge count = %d, want EdgeCount = %d", got, want)
	}
	if cs.CountReason(trace.REdgePO) == 0 {
		t.Error("constraint graph build emitted no program-order edges")
	}
}
