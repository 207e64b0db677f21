package system

// Scenario tests reproducing the paper's Figure 1 examples and the
// §5.1 value-locality observations against the real pipeline.

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/isa"
	"vbmo/internal/prog"
)

const scenBase = uint64(0x100000)

// rawHazardProgram builds the Figure 1(a) scenario as a loop: a store
// whose address resolves late (behind a divide), immediately followed
// by a load to the same address whose own address is ready at once.
// When silent is true the store rewrites the value already in memory.
func rawHazardProgram(silent bool) *prog.Program {
	b := prog.NewBuilder(0x1000)
	// r1 = target address, r9 = divisor, r20 = changing value.
	top := b.Here()
	if silent {
		// Load the current memory value and store it back.
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 20, Src1: 1})
	} else {
		b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 20, Src1: 20, Imm: 1})
	}
	// Late-resolving store address: r13 == r1, after a 12-cycle divide.
	b.Emit(isa.Inst{Op: isa.OpDiv, Dst: 14, Src1: 20, Src2: 9})
	b.Emit(isa.Inst{Op: isa.OpXor, Dst: 15, Src1: 14, Src2: 14})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 13, Src1: 1, Src2: 15})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 13, Src2: 20})
	// The premature load: address ready immediately.
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 21, Src1: 1})
	// Pad with independent work so the window stays busy.
	for i := 0; i < 6; i++ {
		b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 22, Src1: 22, Src2: 22})
	}
	b.Branch(isa.OpJump, 0, top)
	return b.Build()
}

func scenInit() prog.ArchState {
	var st prog.ArchState
	st.WriteReg(1, scenBase)
	st.WriteReg(9, 3)
	return st
}

// scenario is a finished one-core scenario run and the instructions its
// core committed.
type scenario struct {
	*System
	commits []prog.Committed
}

func runScenario(t *testing.T, cfg config.Machine, p *prog.Program, n uint64) scenario {
	t.Helper()
	opt := Options{Cores: 1, Seed: 99}
	s := NewCustom(cfg, p, []prog.ArchState{scenInit()}, opt)
	commits := tapCommits(s)
	res := s.Run(n, opt)
	if res.Pipe.Committed < n {
		t.Fatalf("under-committed: %d < %d (cycles=%d)", res.Pipe.Committed, n, res.Cycles)
	}
	return scenario{s, commits[0]}
}

func TestFigure1aBaselineSquashes(t *testing.T) {
	// The baseline's load-queue CAM search at store agen must catch the
	// premature load at least once (before the store-set predictor
	// learns the pair).
	s := runScenario(t, config.Baseline(), rawHazardProgram(false), 2000)
	if s.Cores[0].Stats.SquashesRAW == 0 {
		t.Error("baseline detected no RAW violations")
	}
	// The committed loads must nevertheless observe the stores' values:
	// compare against the functional oracle.
	assertOracleCustom(t, s, rawHazardProgram(false))
}

func TestFigure1aReplayDetectsMismatch(t *testing.T) {
	s := runScenario(t, config.Replay(core.ReplayAll), rawHazardProgram(false), 2000)
	if s.Cores[0].Stats.SquashesReplayRAW == 0 {
		t.Error("replay machine detected no RAW violations")
	}
	assertOracleCustom(t, s, rawHazardProgram(false))
}

func TestSilentStoreAvoidsReplaySquash(t *testing.T) {
	// §5.1 value locality: when the conflicting store is silent, the
	// premature load's value was correct — the baseline still squashes
	// on the address match, but value-based replay does not.
	base := runScenario(t, config.Baseline(), rawHazardProgram(true), 2000)
	if base.Cores[0].Stats.SquashesRAW == 0 {
		t.Error("baseline should squash on address match even for silent stores")
	}
	rep := runScenario(t, config.Replay(core.ReplayAll), rawHazardProgram(true), 2000)
	st := rep.Cores[0].Stats
	if st.SquashesReplayRAW != 0 || st.SquashesReplayCons != 0 {
		t.Errorf("replay squashed %d/%d times on silent stores",
			st.SquashesReplayRAW, st.SquashesReplayCons)
	}
}

func TestNUSFilterCatchesHazard(t *testing.T) {
	// The no-unresolved-store filter alone must catch uniprocessor RAW
	// hazards (it is the RAW half of the composition).
	s := runScenario(t, config.Replay(core.NUSOnly), rawHazardProgram(false), 2000)
	st := s.Cores[0].Stats
	if st.SquashesReplayRAW == 0 {
		t.Error("NUS filter missed the RAW hazard")
	}
	assertOracleCustom(t, s, rawHazardProgram(false))
	// And it must have filtered the pad loads... this program has no
	// other loads, so instead check replay count is below loads seen.
	eng := s.Cores[0].Engine()
	if eng.Stats.Replays >= eng.Stats.LoadsSeen {
		t.Errorf("NUS filtered nothing: %d replays of %d loads",
			eng.Stats.Replays, eng.Stats.LoadsSeen)
	}
}

func TestPredictorLearnsAndViolationsStop(t *testing.T) {
	// After training, the simple predictor must stall the load and stop
	// the violations: the violation count over the second half of the
	// run must be far lower than the first half.
	opt := Options{Cores: 1, Seed: 99}
	cfg := config.Replay(core.ReplayAll)
	s := NewCustom(cfg, rawHazardProgram(false), []prog.ArchState{scenInit()}, opt)
	s.Run(1500, opt)
	firstHalf := s.Cores[0].Stats.SquashesReplayRAW
	s.Run(3000, opt)
	secondHalf := s.Cores[0].Stats.SquashesReplayRAW - firstHalf
	if secondHalf > firstHalf {
		t.Errorf("violations did not decay: %d then %d", firstHalf, secondHalf)
	}
	// The premature load is the program's sixth instruction.
	if pc := uint64(0x1000 + 5*prog.InstBytes); !s.Cores[0].SimplePredictor().Predicts(pc) {
		t.Errorf("simple predictor never trained the premature load at %#x", pc)
	}
}

// forwardProgram: a store with an immediately-resolved address followed
// by a same-address load — must forward from the store queue.
func forwardProgram() *prog.Program {
	b := prog.NewBuilder(0x1000)
	top := b.Here()
	b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 20, Src1: 20, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 1, Src2: 20})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 21, Src1: 1})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 22, Src1: 21, Src2: 22})
	b.Branch(isa.OpJump, 0, top)
	return b.Build()
}

func TestStoreToLoadForwarding(t *testing.T) {
	s := runScenario(t, config.Baseline(), forwardProgram(), 2000)
	st := s.Cores[0].Stats
	if st.ForwardedLoads == 0 {
		t.Error("no loads forwarded from the store queue")
	}
	if st.SquashesRAW > 0 {
		t.Error("forwarded loads must not be squashed")
	}
	assertOracleCustom(t, s, forwardProgram())
}

// assertOracleCustom checks a custom-program run against the reference
// executor.
func assertOracleCustom(t *testing.T, s scenario, p *prog.Program) {
	t.Helper()
	ex := prog.NewExecutor(p, prog.NewImage(99), scenInit())
	want := ex.Run(len(s.commits))
	for i, w := range want {
		g := s.commits[i]
		if g.PC != w.PC || g.Result != w.Result || g.Addr != w.Addr {
			t.Fatalf("commit %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestFigure1bSnoopSquash(t *testing.T) {
	// Figure 1(b): processor p2 reorders two loads; p1's intervening
	// stores make the reordering visible. The snooping load queue must
	// squash at least once in a contended two-core run, and the
	// replay machine must observe consistency (non-NUS) activity.
	// Build: p-even stores to two shared words; p-odd loads them in a
	// dependence-free pair (reorderable).
	b := prog.NewBuilder(0x1000)
	top := b.Here()
	// Both cores run the same SPMD code: store to [r1], store to [r2],
	// then load [r2] and load [r1]. With two cores the stores of one
	// interleave with the loads of the other.
	b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 20, Src1: 20, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 1, Src2: 20})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 2, Src2: 20})
	// A long-latency op delays the first load so the second (younger)
	// load issues first — the Figure 1(b) reordering.
	b.Emit(isa.Inst{Op: isa.OpDiv, Dst: 14, Src1: 20, Src2: 9})
	b.Emit(isa.Inst{Op: isa.OpXor, Dst: 15, Src1: 14, Src2: 14})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 13, Src1: 2, Src2: 15}) // r13 == r2, late
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 21, Src1: 13})         // load B (late addr)
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 22, Src1: 1})          // load A (early)
	b.Branch(isa.OpJump, 0, top)
	p := b.Build()

	mk := func(coreID int) prog.ArchState {
		var st prog.ArchState
		// Both cores touch the same two shared words.
		st.WriteReg(1, scenBase)
		st.WriteReg(2, scenBase+64)
		st.WriteReg(9, 3)
		st.WriteReg(20, uint64(coreID)*1000)
		return st
	}
	opt := Options{Cores: 2, Seed: 5}
	s := NewCustom(config.Baseline(), p, []prog.ArchState{mk(0), mk(1)}, opt)
	s.Run(4000, opt)
	inval := s.Cores[0].Stats.SquashesInval + s.Cores[1].Stats.SquashesInval
	if inval == 0 {
		t.Error("snooping load queue never squashed under contention")
	}

	s2 := NewCustom(config.Replay(core.NoRecentSnoop), p,
		[]prog.ArchState{mk(0), mk(1)}, opt)
	s2.Run(4000, opt)
	events := s2.Cores[0].Engine().Stats.WindowEvents + s2.Cores[1].Engine().Stats.WindowEvents
	if events == 0 {
		t.Error("no-recent-snoop filter observed no external events")
	}
}
