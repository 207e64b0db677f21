package config

import (
	"testing"

	"vbmo/internal/core"
	"vbmo/internal/lsq"
)

func TestBaselineMatchesTable3(t *testing.T) {
	m := Baseline()
	if m.Width != 8 || m.ROBSize != 256 || m.IQSize != 32 {
		t.Errorf("pipeline shape: %+v", m)
	}
	if m.IntALU != 8 || m.IntMulDiv != 3 || m.FPALU != 4 || m.FPMulDiv != 4 {
		t.Errorf("FU pool: %+v", m)
	}
	if m.IntLat != 1 || m.MulLat != 3 || m.DivLat != 12 || m.FPLat != 4 {
		t.Errorf("FU latencies: %+v", m)
	}
	if m.LoadPorts != 4 {
		t.Errorf("load ports = %d, want 4 (Table 3)", m.LoadPorts)
	}
	if m.MemLatency != 400 {
		t.Errorf("memory latency = %d, want 400", m.MemLatency)
	}
	if m.SSITEntries != 4096 || m.LFSTEntries != 128 || m.SimpleEntries != 4096 {
		t.Errorf("predictor sizes: %+v", m)
	}
	if !m.UseStoreSets || m.Scheme != BaselineLSQ || m.LQMode != lsq.Snooping {
		t.Errorf("ordering config: %+v", m)
	}
	if m.FetchBuf < m.Width*m.FrontEndDepth {
		t.Errorf("fetch buffer %d cannot sustain width %d over depth %d",
			m.FetchBuf, m.Width, m.FrontEndDepth)
	}
	// Table 3 caches.
	if m.Hier.L1D.Size != 32<<10 || m.Hier.L1D.Ways != 1 || m.Hier.L1D.Latency != 1 {
		t.Errorf("L1D: %+v", m.Hier.L1D)
	}
	if m.Hier.L2.Size != 256<<10 || m.Hier.L2.Ways != 8 || m.Hier.L2.Latency != 7 {
		t.Errorf("L2: %+v", m.Hier.L2)
	}
	if m.Hier.L3.Size != 8<<20 || m.Hier.L3.Ways != 8 || m.Hier.L3.Latency != 15 {
		t.Errorf("L3: %+v", m.Hier.L3)
	}
	// Table 3 branch predictor.
	if m.BP.BimodalEntries != 16*1024 || m.BP.GshareEntries != 16*1024 ||
		m.BP.SelectorEntries != 16*1024 || m.BP.BTBEntries != 8*1024 {
		t.Errorf("branch predictor: %+v", m.BP)
	}
}

func TestReplayConfig(t *testing.T) {
	m := Replay(core.NoRecentSnoop)
	if m.Scheme != ValueReplay {
		t.Error("scheme")
	}
	if m.Filter != core.NoRecentSnoop {
		t.Error("filter")
	}
	if m.UseStoreSets {
		t.Error("replay machines use the simple predictor (paper §3)")
	}
	if m.LQSize != m.ROBSize {
		t.Error("the FIFO load queue scales with the ROB")
	}
	if m.ReplayPerCycle != 1 {
		t.Error("paper: one replay per cycle")
	}
	if m.Name != "replay-no-recent-snoop" {
		t.Errorf("name = %q", m.Name)
	}
}

func TestConstrainedBaseline(t *testing.T) {
	for _, size := range []int{16, 32} {
		m := ConstrainedBaseline(size)
		if m.LQSize != size {
			t.Errorf("LQ size = %d, want %d", m.LQSize, size)
		}
		if m.Scheme != BaselineLSQ {
			t.Error("constrained machines are baselines")
		}
	}
	if ConstrainedBaseline(16).Name != "baseline-lq16" {
		t.Errorf("name = %q", ConstrainedBaseline(16).Name)
	}
	if ConstrainedBaseline(0).Name != "baseline-lq0" {
		t.Errorf("itoa(0) broken: %q", ConstrainedBaseline(0).Name)
	}
}

func TestSchemeString(t *testing.T) {
	if BaselineLSQ.String() != "baseline" || ValueReplay.String() != "value-replay" {
		t.Error("scheme names")
	}
}

func TestLQModeVariants(t *testing.T) {
	if InsulatedBaseline().LQMode != lsq.Insulated {
		t.Error("insulated baseline mode")
	}
	if HybridBaseline().LQMode != lsq.Hybrid {
		t.Error("hybrid baseline mode")
	}
	if InsulatedBaseline().Scheme != BaselineLSQ || HybridBaseline().Scheme != BaselineLSQ {
		t.Error("LQ variants are baselines")
	}
}

func TestReplayVPConfig(t *testing.T) {
	m := ReplayVP(core.NoRecentSnoop)
	if !m.UseValuePrediction {
		t.Errorf("VP config: %+v", m)
	}
	if m.Scheme != ValueReplay {
		t.Error("VP requires the replay machine (its verifier)")
	}
	if m.Name != "replay-no-recent-snoop-vpred" {
		t.Errorf("name = %q", m.Name)
	}
}

func TestBloomAndHierSQConfigs(t *testing.T) {
	if BloomBaseline().BloomCounters == 0 {
		t.Error("bloom baseline has no filter")
	}
	if HierSQBaseline().SQL1Size == 0 || HierSQBaseline().SQL2Latency == 0 {
		t.Error("hierarchical SQ baseline not configured")
	}
}
