package bpred

import (
	"testing"

	"vbmo/internal/isa"
)

func small() Config {
	return Config{
		BimodalEntries:  64,
		GshareEntries:   64,
		SelectorEntries: 64,
		BTBEntries:      16,
		BTBWays:         4,
	}
}

func TestAlwaysTakenLearns(t *testing.T) {
	p := New(small())
	pc := uint64(0x400)
	wrong := 0
	for i := 0; i < 100; i++ {
		taken, m := p.Predict(pc)
		if !taken {
			wrong++
		}
		p.Update(pc, true, m)
	}
	if wrong > 2 {
		t.Errorf("always-taken branch mispredicted %d times", wrong)
	}
}

func TestAlwaysNotTakenLearns(t *testing.T) {
	p := New(small())
	pc := uint64(0x404)
	wrong := 0
	for i := 0; i < 100; i++ {
		taken, m := p.Predict(pc)
		if taken {
			wrong++
		}
		p.Update(pc, false, m)
	}
	// Counters initialize weakly-taken, so a couple of warmup misses.
	if wrong > 4 {
		t.Errorf("never-taken branch mispredicted %d times", wrong)
	}
}

func TestGshareLearnsAlternatingPattern(t *testing.T) {
	p := New(small())
	pc := uint64(0x408)
	wrong := 0
	for i := 0; i < 400; i++ {
		want := i%2 == 0
		taken, m := p.Predict(pc)
		if taken != want && i > 100 {
			wrong++
		}
		p.Update(pc, want, m)
	}
	// Bimodal cannot learn T/N/T/N but gshare (and the selector) can.
	if wrong > 10 {
		t.Errorf("alternating pattern mispredicted %d of 300 post-warmup", wrong)
	}
}

func TestMispredictRateCounting(t *testing.T) {
	p := New(small())
	pc := uint64(0x40c)
	wrong := uint64(0)
	for i := 0; i < 10; i++ {
		pred, m := p.Predict(pc)
		if pred {
			wrong++ // the branch is never taken
		}
		p.Update(pc, false, m)
	}
	// The rate's two counts: every lookup, and exactly the lookups
	// whose prediction differed from the outcome.
	if p.Stats.Lookups != 10 || p.Stats.Mispredicts != wrong || wrong == 0 {
		t.Errorf("Lookups = %d, Mispredicts = %d, want 10 and %d (> 0)", p.Stats.Lookups, p.Stats.Mispredicts, wrong)
	}
	if s := New(small()).Stats; s.Lookups != 0 || s.Mispredicts != 0 {
		t.Errorf("empty predictor counted %+v", s)
	}
}

func TestHistoryRepairOnMispredict(t *testing.T) {
	p := New(small())
	pc := uint64(0x500)
	_, m := p.Predict(pc)
	// Force a mispredict: whatever was predicted, report the opposite.
	pred := m.BimodalTaken
	if m.UsedGshare {
		pred = m.GshareTaken
	}
	p.Update(pc, !pred, m)
	// After repair, history's low bit must reflect the actual outcome.
	wantBit := uint64(0)
	if !pred {
		wantBit = 1
	}
	if p.history&1 != wantBit {
		t.Errorf("history low bit = %d, want %d", p.history&1, wantBit)
	}
}

func TestBTBInstallAndLookup(t *testing.T) {
	p := New(small()) // 16 entries, 4 ways -> 4 sets
	if p.BTBLookup(0x100) {
		t.Error("cold BTB should miss")
	}
	p.BTBInstall(0x100)
	if !p.BTBLookup(0x100) {
		t.Error("an installed branch should hit")
	}
	// Refreshing a resident branch reuses its way: three more branches
	// of the same set (stride = sets*4 bytes = 16) still fit beside it.
	p.BTBInstall(0x100)
	for _, pc := range []uint64{0x110, 0x120, 0x130} {
		p.BTBInstall(pc)
	}
	for _, pc := range []uint64{0x100, 0x110, 0x120, 0x130} {
		if !p.BTBLookup(pc) {
			t.Errorf("BTB lost %#x after a refresh", pc)
		}
	}
}

func TestBTBSetConflictEviction(t *testing.T) {
	p := New(small()) // 16 entries, 4 ways -> 4 sets
	// Five PCs mapping to the same set (stride = sets*4 bytes = 16).
	pcs := []uint64{0x0, 0x10, 0x20, 0x30, 0x40}
	for _, pc := range pcs {
		p.BTBInstall(pc)
	}
	hits := 0
	for _, pc := range pcs {
		if p.BTBLookup(pc) {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("expected exactly 4 of 5 conflicting entries resident, got %d", hits)
	}
}

func TestPredictInstUnconditional(t *testing.T) {
	p := New(small())
	taken, _ := p.PredictInst(isa.Inst{Op: isa.OpJump}, 0x100)
	if !taken {
		t.Error("jump must predict taken")
	}
	if p.Stats.Lookups != 0 {
		t.Error("unconditional branches must not consult direction tables")
	}
	taken2, _ := p.PredictInst(isa.Inst{Op: isa.OpBeqz}, 0x104)
	_ = taken2
	if p.Stats.Lookups != 1 {
		t.Error("conditional branch should count a lookup")
	}
}

func TestDistinctBranchesDoNotInterfere(t *testing.T) {
	p := New(Config{
		BimodalEntries: 1024, GshareEntries: 1024, SelectorEntries: 1024,
		BTBEntries: 64, BTBWays: 4,
	})
	// Train two branches with opposite biases; both should be learned.
	wrongA, wrongB := 0, 0
	for i := 0; i < 200; i++ {
		ta, ma := p.Predict(0x1000)
		p.Update(0x1000, true, ma)
		if !ta && i > 20 {
			wrongA++
		}
		tb, mb := p.Predict(0x2000)
		p.Update(0x2000, false, mb)
		if tb && i > 20 {
			wrongB++
		}
	}
	if wrongA > 8 || wrongB > 8 {
		t.Errorf("interference: wrongA=%d wrongB=%d", wrongA, wrongB)
	}
}

// TestTable3Storage: at Table 3 sizes a predictor holds 86,016 bytes
// (84 KiB): three 16k-entry counter tables at four counters a byte, and
// the BTB's 8k tags and LRU ages. One byte per counter, a stored target
// per BTB entry and a 64-entry return address stack took 188,928
// (184.5 KiB).
func TestTable3Storage(t *testing.T) {
	p := New(DefaultConfig())
	bytes := len(p.bimodal) + len(p.gshare) + len(p.selector) +
		8*len(p.btbTags) + len(p.btbLRU)
	if bytes != 86016 {
		t.Errorf("Table 3 predictor holds %d bytes, want 86016", bytes)
	}
}
