// Package config defines machine configurations: the paper's Table 3
// baseline, the value-based replay variants of §5.1, and the
// size-constrained load-queue machines of §5.2 (Figure 8).
package config

import (
	"vbmo/internal/bpred"
	"vbmo/internal/cache"
	"vbmo/internal/core"
	"vbmo/internal/lsq"
)

// MaxCores is the largest supported SMP width. The bound comes from
// the coherence directory, which tracks each block's sharer set as a
// 32-bit mask; the paper's largest system (and the default experiment
// width) is 16-way.
const MaxCores = 32

// Scheme selects the memory-ordering mechanism.
type Scheme int

const (
	// BaselineLSQ is the conventional machine: associative load queue
	// plus a store-set dependence predictor.
	BaselineLSQ Scheme = iota
	// ValueReplay is the paper's machine: FIFO load queue, value-based
	// replay, and the simple Alpha-style dependence predictor.
	ValueReplay
)

// String names the scheme.
func (s Scheme) String() string {
	if s == ValueReplay {
		return "value-replay"
	}
	return "baseline"
}

// Machine is a complete core configuration (Table 3 unless noted).
type Machine struct {
	Name string

	// Pipeline shape.
	Width         int // fetch/dispatch/issue/commit width (8)
	ROBSize       int // 256
	IQSize        int // 32; at most pipeline.MaxIQSize (64)
	LQSize        int // load queue entries (128 in the unified baseline)
	SQSize        int // store queue entries
	FetchBuf      int // fetch-to-dispatch buffer
	FrontEndDepth int // cycles from fetch to dispatch eligibility

	// Functional units: counts and latencies.
	IntALU, IntMulDiv, FPALU, FPMulDiv int
	IntLat, MulLat, DivLat, FPLat      int
	LoadPorts                          int // L1D load ports in the OoO window (4)

	// Memory ordering.
	Scheme Scheme
	LQMode lsq.Mode    // baseline load-queue style
	Filter core.Filter // replay filter configuration

	// Dependence predictor sizes.
	SSITEntries, LFSTEntries int // store sets (baseline)
	SimpleEntries            int // simple predictor (replay)
	// UseStoreSets selects the baseline's predictor; the replay
	// machine always uses the simple predictor (it cannot identify the
	// conflicting store; paper §3). Exposed for the replay+store-set
	// ablation.
	UseStoreSets bool

	// BloomCounters, when nonzero, attaches a counting Bloom filter of
	// that many counters to the baseline's associative load queue so
	// store-agen and snoop searches can be skipped when no issued load
	// can match (Sethumadhavan et al.; paper §1 related work).
	BloomCounters int
	// BloomHashes is the filter's hash count (default 2).
	BloomHashes int

	// SQL1Size, when nonzero, makes the store queue hierarchical
	// (Akkary et al., paper §1 related work): the newest SQL1Size
	// stores form the fast level-one queue, deeper forwarding matches
	// cost SQL2Latency cycles, and a membership filter avoids
	// level-two probes.
	SQL1Size     int
	SQL2Latency  int
	SQFilterCtrs int

	// UseValuePrediction enables the last-value load predictor on
	// value-replay machines: predicted loads feed consumers at
	// dispatch and are verified by the replay/compare stages (paper
	// §1's Martin et al. discussion). Ignored on baseline machines,
	// which have no verification back end.
	UseValuePrediction bool
	// VPredEntries sizes the predictor table.
	VPredEntries int

	// ReplayPerCycle bounds replay bandwidth (paper: 1).
	ReplayPerCycle int
	// ReplayWindow is how deep from the reorder-buffer head the replay
	// stage reaches (two pipe stages × width).
	ReplayWindow int
	// SquashIncludesLoad selects the heavier squash variant in which
	// the mismatching load itself is refetched (forward-progress rule 3
	// then matters); the default commits the load with its replay
	// value.
	SquashIncludesLoad bool

	// Front end and memory system.
	BP         bpred.Config
	Hier       cache.HierConfig
	MemLatency int
}

// Baseline returns the Table 3 baseline machine with an unconstrained
// (128-entry) snooping load queue and store-set prediction.
func Baseline() Machine {
	return Machine{
		Name:          "baseline",
		Width:         8,
		ROBSize:       256,
		IQSize:        32,
		LQSize:        128,
		SQSize:        128,
		FrontEndDepth: 10, // 15-stage pipe: ~10 cycles fetch → dispatch
		FetchBuf:      96, // front-end pipe holds width × (depth + 2)
		IntALU:        8, IntMulDiv: 3, FPALU: 4, FPMulDiv: 4,
		IntLat: 1, MulLat: 3, DivLat: 12, FPLat: 4,
		LoadPorts:      4,
		Scheme:         BaselineLSQ,
		LQMode:         lsq.Snooping,
		SSITEntries:    4096,
		LFSTEntries:    128,
		SimpleEntries:  4096,
		UseStoreSets:   true,
		ReplayPerCycle: 1,
		ReplayWindow:   16,
		BP:             bpred.DefaultConfig(),
		Hier:           cache.DefaultHierConfig(),
		MemLatency:     400,
	}
}

// Replay returns the value-based replay machine with the given filter.
func Replay(f core.Filter) Machine {
	m := Baseline()
	m.Name = "replay-" + f.String()
	m.Scheme = ValueReplay
	m.Filter = f
	m.UseStoreSets = false
	// The FIFO load queue has no CAM, so it scales with the ROB.
	m.LQSize = m.ROBSize
	return m
}

// BloomBaseline returns the baseline augmented with a Bloom-filtered
// load-queue search (an energy optimization that keeps the CAM; the
// paper's introduction contrasts this class of designs with replay).
func BloomBaseline() Machine {
	m := Baseline()
	m.Name = "baseline-bloom"
	m.BloomCounters = 1024
	m.BloomHashes = 2
	return m
}

// HierSQBaseline returns the baseline with Akkary et al.'s two-level
// store queue: a 16-entry fast level one backed by the full queue with
// a 3-cycle level-two forwarding latency.
func HierSQBaseline() Machine {
	m := Baseline()
	m.Name = "baseline-hiersq"
	m.SQL1Size = 16
	m.SQL2Latency = 3
	m.SQFilterCtrs = 1024
	return m
}

// InsulatedBaseline returns an Alpha 21264-style machine: the load
// queue never processes external invalidations; instead every issuing
// load searches for younger already-issued loads to the same address
// (paper §2.1). Same-address load-load ordering is what weakly-ordered
// machines enforce in hardware.
func InsulatedBaseline() Machine {
	m := Baseline()
	m.Name = "baseline-insulated"
	m.LQMode = lsq.Insulated
	return m
}

// HybridBaseline returns an IBM Power4-style machine: snoops mark
// conflicting loads, and load-issue searches squash only marked
// conflicts (paper §2.1).
func HybridBaseline() Machine {
	m := Baseline()
	m.Name = "baseline-hybrid"
	m.LQMode = lsq.Hybrid
	return m
}

// ReplayVP returns the replay machine with last-value load prediction
// verified by the replay stage.
func ReplayVP(f core.Filter) Machine {
	m := Replay(f)
	m.Name = m.Name + "-vpred"
	m.UseValuePrediction = true
	m.VPredEntries = 4096
	return m
}

// ConstrainedBaseline returns the Figure 8 baseline whose separate
// associative load queue is limited by clock cycle time.
func ConstrainedBaseline(lqSize int) Machine {
	m := Baseline()
	m.Name = "baseline-lq" + itoa(lqSize)
	m.LQSize = lqSize
	return m
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
