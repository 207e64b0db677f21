package pipeline_test

import (
	"strings"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// TestIQReadyMaskInvariants checks the wake-up issue queue (Core.CheckIQ)
// and the handle-addressed memory queues (Core.CheckLSQ) before every
// cycle across the machine registry — baseline and insulated load
// queues, the replay filters, value prediction, the two-level store
// queue — on a uniprocessor run and a 4-way coherence run, plus 16-way
// runs. A lost wake-up, a parked load that missed the event that
// unblocked it or changed what its probe counts, or a stale queue
// handle would otherwise show only as a timing change, a counter drift
// or a watchdog deadlock.
func TestIQReadyMaskInvariants(t *testing.T) {
	type run struct {
		name  string
		cfg   config.Machine
		work  string
		cores int
		insts uint64
		seed  uint64
	}
	named := func(machine, work string, cores int, insts uint64) run {
		cfg, _ := config.ByName(machine)
		return run{machine + "/" + work, cfg, work, cores, insts, 5}
	}
	var runs []run
	for _, name := range config.Names() {
		runs = append(runs, named(name, "mcf", 1, 3000), named(name, "ocean", 4, 500))
	}
	// The baseline's load queue trains the simple dependence predictor
	// when store sets are off. On vortex at seed 3 a violation trains it
	// while an older load of the same PC is parked.
	simple := config.Baseline()
	simple.UseStoreSets = false
	// A replay machine whose load queue fills before its ROB, so the
	// load-queue dispatch stall runs (every registry replay machine
	// sizes its load queue to the ROB).
	lq32 := config.Replay(core.NoRecentSnoop)
	lq32.LQSize = 32
	runs = append(runs,
		run{"replay-lq32/mcf", lq32, "mcf", 1, 3000, 5},
		run{"replay-lq32/ocean", lq32, "ocean", 4, 1000, 5},
		named("baseline", "spin-mp", 16, 150),
		named("baseline-insulated", "jbb-mp", 16, 150),
		named("replay-vpred", "jbb-mp", 16, 150),
		// Each store's dispatch moves the level-one boundary of a
		// two-level store queue under the parked loads' searches, which
		// changes whether they cross into level two.
		named("baseline-hiersq", "gzip", 1, 3000),
		run{"baseline-simple/vortex", simple, "vortex", 1, 4000, 3},
	)
	for _, r := range runs {
		work, ok := workload.ByName(r.work)
		if !ok {
			t.Fatalf("unknown workload %q", r.work)
		}
		t.Run(r.name, func(t *testing.T) {
			var s *system.System
			opt := system.Options{Cores: r.cores, Seed: r.seed, DMAInterval: 4000, DMABurst: 2,
				OnCycle: func(cycle int64) {
					for _, c := range s.Cores {
						if err := c.CheckIQ(); err != nil {
							t.Fatalf("cycle %d core %d: %v", cycle, c.ID, err)
						}
						if err := c.CheckLSQ(); err != nil {
							t.Fatalf("cycle %d core %d: %v", cycle, c.ID, err)
						}
					}
				}}
			s = system.New(r.cfg, work, opt)
			res := s.Run(r.insts, opt)
			if r.cfg.Scheme == config.ValueReplay && r.cfg.LQSize < r.cfg.ROBSize && res.Pipe.StallLQ == 0 {
				t.Error("the load queue never stalled dispatch")
			}
		})
	}
}

// TestTrainingWakeKeepsParkedCountsExact trains the simple dependence
// predictor on the PC of a load parked on its forwarding store's data
// while an older store's address is unresolved. Trained, the load waits
// for that store instead of searching the store queue, so the search it
// recorded no longer holds, and only trainSimple's wake keeps CheckIQ
// passing. No registry run reaches that state by itself: a replay
// machine trains only at a squash that kills every parked load, and
// every baseline uses store sets. So the test trains the PC through a
// hook, checks at once, and checks again before every later cycle.
func TestTrainingWakeKeepsParkedCountsExact(t *testing.T) {
	cfg, _ := config.ByName("no-recent-snoop")
	work, _ := workload.ByName("mcf")
	var s *system.System
	trained := false
	opt := system.Options{Cores: 1, Seed: 5, OnCycle: func(cycle int64) {
		c := s.Cores[0]
		if err := c.CheckIQ(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if trained {
			return
		}
		if pc, ok := c.ParkedSearcherPC(); ok {
			c.TrainSimple(pc)
			trained = true
			if err := c.CheckIQ(); err != nil {
				t.Fatalf("cycle %d, trained pc %#x: %v", cycle, pc, err)
			}
		}
	}}
	s = system.New(cfg, work, opt)
	s.Run(3000, opt)
	if !trained {
		t.Fatal("no load parked on forwarding data behind an unresolved store")
	}
}

// TestCheckLSQCatchesStaleHandle swaps two loads' queue handles in the
// middle of a run, as a handle recorded for the wrong load would, and
// checks that CheckLSQ reports it at that cycle, on a baseline and on a
// replay machine.
func TestCheckLSQCatchesStaleHandle(t *testing.T) {
	work, _ := workload.ByName("gzip")
	for _, machine := range []string{"baseline", "no-recent-snoop"} {
		cfg, _ := config.ByName(machine)
		var s *system.System
		caught := false
		opt := system.Options{Cores: 1, Seed: 5, OnCycle: func(cycle int64) {
			c := s.Cores[0]
			if caught || cycle < 500 || !c.SwapLoadHandles() {
				return
			}
			err := c.CheckLSQ()
			c.SwapLoadHandles()
			if err == nil || !strings.Contains(err.Error(), "load queue handle") {
				t.Fatalf("%s cycle %d: swapped load handles, CheckLSQ reported %v", machine, cycle, err)
			}
			caught = true
		}}
		s = system.New(cfg, work, opt)
		s.Run(2000, opt)
		if !caught {
			t.Errorf("%s: never held two loads to swap", machine)
		}
	}
}

// TestLostWakeupInDeadlockReport loses one wake-up on purpose and checks
// that the watchdog's deadlock report shows it: the stuck instruction
// reaches the reorder-buffer head still in the issue queue, waiting on a
// producer that has long since committed.
func TestLostWakeupInDeadlockReport(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("gzip")
	var s *system.System
	lost := false
	opt := system.Options{Cores: 1, Seed: 42, WatchdogCycles: 2000,
		OnCycle: func(int64) {
			if !lost {
				lost = s.Cores[0].LoseWakeup()
			}
		}}
	s = system.New(cfg, work, opt)
	res := s.Run(20000, opt)
	if s.Deadlock == nil {
		t.Fatalf("no deadlock after losing wake-ups (committed %d)", res.Pipe.Committed)
	}
	head := s.Deadlock.Cores[0].ROB[0]
	if !head.InIQ || head.Waiting != 1 || head.Issued {
		t.Fatalf("ROB head %+v: want an unissued entry in the issue queue waiting on 1 producer", head)
	}
	if text := s.Deadlock.String(); !strings.Contains(text, "iq[waiting=1]") {
		t.Fatalf("report text lacks the issue-queue wait state:\n%s", text)
	}
}

// TestParkedLoadInDeadlockReport strands loads in the parked set, as a
// lost parked-load wake would, and checks that the watchdog's deadlock
// report shows the stuck load at the reorder-buffer head as parked.
func TestParkedLoadInDeadlockReport(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("gzip")
	var s *system.System
	opt := system.Options{Cores: 1, Seed: 42, WatchdogCycles: 2000,
		OnCycle: func(int64) { s.Cores[0].StrandLoad() }}
	s = system.New(cfg, work, opt)
	res := s.Run(20000, opt)
	if s.Deadlock == nil {
		t.Fatalf("no deadlock after stranding loads (committed %d)", res.Pipe.Committed)
	}
	head := s.Deadlock.Cores[0].ROB[0]
	if !head.Load || !head.InIQ || !head.Parked || head.Issued {
		t.Fatalf("ROB head %+v: want an unissued load parked in the issue queue", head)
	}
	if text := s.Deadlock.String(); !strings.Contains(text, "iq[parked]") {
		t.Fatalf("report text lacks the parked state:\n%s", text)
	}
}
