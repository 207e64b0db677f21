package system

import (
	"strings"
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/isa"
	"vbmo/internal/pipeline"
)

// TestIQOccupancyMatchesROB checks, before every cycle of a run on every
// registry machine, that the issue queue holds each un-issued
// instruction exactly once: IQLen must equal the number of reorder-buffer
// entries that need a queue slot (everything but nops and barriers) and
// have not issued. An entry held in two slots, or an issued entry left
// behind, overstates the occupancy dispatch stalls on. The insulated load
// queue's issue-time squash, which cuts the queue in the middle of the
// issue scan, is the case that once broke this.
func TestIQOccupancyMatchesROB(t *testing.T) {
	nop, membar := isa.ClassNop.String(), isa.ClassMembar.String()
	cases := []struct {
		work  string
		cores int
		insts uint64
	}{
		{"mcf", 1, 3000},
		{"ocean", 4, 600},
	}
	for _, name := range config.Names() {
		cfg, _ := config.ByName(name)
		for _, tc := range cases {
			t.Run(name+"/"+tc.work, func(t *testing.T) {
				var s *System
				bad := 0
				opt := Options{Cores: tc.cores, Seed: 7, DMAInterval: 4000, DMABurst: 2,
					OnCycle: func(cycle int64) {
						for _, c := range s.Cores {
							want := 0
							for _, e := range c.Dump(0).ROB {
								if !e.Issued && e.Class != nop && e.Class != membar {
									want++
								}
							}
							if got := c.IQLen(); got != want && bad < 3 {
								bad++
								t.Errorf("cycle %d core %d: IQLen %d, want %d un-issued queue entries",
									cycle, c.ID, got, want)
							}
						}
					}}
				s = New(cfg, mustWork(t, tc.work), opt)
				s.Run(tc.insts, opt)
			})
		}
	}
}

// TestIssueQueueSizeBound: the issue queue's slot masks are 64-bit
// words, so a machine with a larger queue is refused at build time, as
// a core count above config.MaxCores is. A queue of exactly
// pipeline.MaxIQSize entries runs and fills to capacity.
func TestIssueQueueSizeBound(t *testing.T) {
	cfg := config.Baseline()
	cfg.IQSize = pipeline.MaxIQSize
	peak := 0
	var s *System
	opt := Options{Cores: 1, Seed: 7, OnCycle: func(int64) {
		if n := s.Cores[0].IQLen(); n > peak {
			peak = n
		}
	}}
	s = New(cfg, mustWork(t, "mcf"), opt)
	if res := s.Run(5000, opt); res.Pipe.Committed < 5000 {
		t.Fatalf("%d-entry issue queue committed %d of 5000", cfg.IQSize, res.Pipe.Committed)
	}
	if peak != cfg.IQSize {
		t.Errorf("issue queue peaked at %d of %d entries", peak, cfg.IQSize)
	}

	cfg.IQSize = pipeline.MaxIQSize + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeds pipeline.MaxIQSize") {
			t.Fatalf("oversized issue queue: recovered %q, want the MaxIQSize panic", msg)
		}
	}()
	New(cfg, mustWork(t, "mcf"), Options{Cores: 1, Seed: 7})
}
