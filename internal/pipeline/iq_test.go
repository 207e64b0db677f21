package pipeline_test

import (
	"strings"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// TestIQReadyMaskInvariants checks the wake-up issue queue before every
// cycle (Core.CheckIQ) across the machine registry — baseline and
// insulated load queues, the replay filters, value prediction — on a
// uniprocessor run and a 4-way coherence run, plus 16-way runs. A lost
// wake-up would otherwise show only as a timing change or a watchdog
// deadlock.
func TestIQReadyMaskInvariants(t *testing.T) {
	type shape struct {
		work  string
		cores int
		insts uint64
	}
	type run struct {
		machine string
		shape
	}
	var runs []run
	for _, name := range config.Names() {
		runs = append(runs, run{name, shape{"mcf", 1, 3000}}, run{name, shape{"ocean", 4, 500}})
	}
	runs = append(runs,
		run{"baseline", shape{"spin-mp", 16, 150}},
		run{"baseline-insulated", shape{"jbb-mp", 16, 150}},
		run{"replay-vpred", shape{"jbb-mp", 16, 150}},
	)
	for _, r := range runs {
		cfg, _ := config.ByName(r.machine)
		work, ok := workload.ByName(r.work)
		if !ok {
			t.Fatalf("unknown workload %q", r.work)
		}
		t.Run(r.machine+"/"+r.work, func(t *testing.T) {
			var s *system.System
			opt := system.Options{Cores: r.cores, Seed: 5, DMAInterval: 4000, DMABurst: 2,
				OnCycle: func(cycle int64) {
					for _, c := range s.Cores {
						if err := c.CheckIQ(); err != nil {
							t.Fatalf("cycle %d core %d: %v", cycle, c.ID, err)
						}
					}
				}}
			s = system.New(cfg, work, opt)
			s.Run(r.insts, opt)
		})
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
