package pipeline

// Stats are one core's pipeline-level measurements. The experiment
// harness derives every figure's series from these plus the cache,
// load-queue, and replay-engine counters. The squash counts are also
// the associative load queue's: Result reports SquashesRAW and
// SquashesInval as lq.raw_squashes and lq.inval_squashes.
type Stats struct {
	Cycles    int64
	Committed uint64

	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranches uint64
	SilentStores      uint64

	// Data-cache bandwidth accounting (Figure 6). DemandLoadAccesses
	// counts premature load cache accesses including wrong-path ones;
	// ForwardedLoads got their value from the store queue;
	// ReplayAccesses are the replay stage's extra cache reads;
	// StoreAccesses are commit-stage store writes.
	DemandLoadAccesses uint64
	ForwardedLoads     uint64
	ReplayAccesses     uint64
	StoreAccesses      uint64

	// Squash accounting.
	SquashesMispredict uint64
	SquashesRAW        uint64 // baseline LQ store-agen violations
	SquashesInval      uint64 // baseline LQ snoop violations
	SquashesLoadIssue  uint64 // insulated/hybrid load-issue violations
	SquashesReplayRAW  uint64 // replay mismatches on NUS loads
	SquashesReplayCons uint64 // replay mismatches on non-NUS loads
	SquashedInstrs     uint64

	// Flag rates for the filters.
	LoadsNUSFlagged uint64
	LoadsReordered  uint64

	// Value prediction (optional).
	ValuePredictedLoads     uint64 // predictions issued at dispatch
	ValuePredictedCommitted uint64 // predicted loads that committed
	SquashesVPred           uint64

	// Occupancy (Figure 7): ROBOccupancySum / Cycles is the average
	// reorder-buffer utilization.
	ROBOccupancySum uint64

	// Dispatch stall causes.
	StallROB, StallIQ, StallLQ, StallSQ, StallBarrier uint64
}

// Add accumulates o into s (the system sums per-core statistics).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Committed += o.Committed
	s.CommittedLoads += o.CommittedLoads
	s.CommittedStores += o.CommittedStores
	s.CommittedBranches += o.CommittedBranches
	s.SilentStores += o.SilentStores
	s.DemandLoadAccesses += o.DemandLoadAccesses
	s.ForwardedLoads += o.ForwardedLoads
	s.ReplayAccesses += o.ReplayAccesses
	s.StoreAccesses += o.StoreAccesses
	s.SquashesMispredict += o.SquashesMispredict
	s.SquashesRAW += o.SquashesRAW
	s.SquashesInval += o.SquashesInval
	s.SquashesLoadIssue += o.SquashesLoadIssue
	s.SquashesReplayRAW += o.SquashesReplayRAW
	s.SquashesReplayCons += o.SquashesReplayCons
	s.SquashedInstrs += o.SquashedInstrs
	s.LoadsNUSFlagged += o.LoadsNUSFlagged
	s.LoadsReordered += o.LoadsReordered
	s.ValuePredictedLoads += o.ValuePredictedLoads
	s.ValuePredictedCommitted += o.ValuePredictedCommitted
	s.SquashesVPred += o.SquashesVPred
	s.ROBOccupancySum += o.ROBOccupancySum
	s.StallROB += o.StallROB
	s.StallIQ += o.StallIQ
	s.StallLQ += o.StallLQ
	s.StallSQ += o.StallSQ
	s.StallBarrier += o.StallBarrier
}

// WorkStats counts the host work that the speed layers exist to save
// (DESIGN.md §22): Step calls, the entries each back-end stage scan
// visits, and the store-queue entries load searches compare. The counts
// are exact, so a change that adds work shows on any host. They stay
// outside Stats, like SkipStats, because runs that are otherwise
// bit-identical differ in them by design: skipping exists to lower them.
type WorkStats struct {
	Steps      uint64 // Core.Step calls
	Writeback  uint64 // pending-list entries the writeback scan visited
	Capture    uint64 // store-data list entries the capture scan visited
	Commit     uint64 // ROB heads the commit stage checked
	Replay     uint64 // ROB entries the replay scan visited
	Issue      uint64 // issue-queue entries the issue scan visited, parked loads included
	SQCompares uint64 // store-queue entries load searches compared
}

// Add accumulates o into w (the system sums per-core work).
func (w *WorkStats) Add(o WorkStats) {
	w.Steps += o.Steps
	w.Writeback += o.Writeback
	w.Capture += o.Capture
	w.Commit += o.Commit
	w.Replay += o.Replay
	w.Issue += o.Issue
	w.SQCompares += o.SQCompares
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// AvgROBOccupancy returns the Figure 7 metric.
func (s *Stats) AvgROBOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ROBOccupancySum) / float64(s.Cycles)
}

// TotalL1DAccesses returns all data-cache accesses: premature loads,
// replays, and stores (forwarded loads probe the store queue, not the
// cache).
func (s *Stats) TotalL1DAccesses() uint64 {
	return s.DemandLoadAccesses + s.ReplayAccesses + s.StoreAccesses
}
