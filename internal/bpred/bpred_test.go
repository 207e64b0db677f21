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
		RASEntries:      4,
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
	for i := 0; i < 10; i++ {
		_, m := p.Predict(pc)
		p.Update(pc, true, m)
	}
	if p.Lookups != 10 {
		t.Errorf("Lookups = %d", p.Lookups)
	}
	if r := p.MispredictRate(); r < 0 || r > 1 {
		t.Errorf("rate out of range: %v", r)
	}
	empty := New(small())
	if empty.MispredictRate() != 0 {
		t.Error("empty predictor rate should be 0")
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

func TestRASPushPop(t *testing.T) {
	p := New(small())
	p.Push(0x10)
	p.Push(0x20)
	if a, ok := p.Pop(); !ok || a != 0x20 {
		t.Errorf("Pop = %#x,%v", a, ok)
	}
	if a, ok := p.Pop(); !ok || a != 0x10 {
		t.Errorf("Pop = %#x,%v", a, ok)
	}
	if _, ok := p.Pop(); ok {
		t.Error("popping a cold slot should report !ok")
	}
}

func TestRASWrapsWhenFull(t *testing.T) {
	p := New(small()) // 4-entry RAS
	for i := 1; i <= 6; i++ {
		p.Push(uint64(i * 0x10))
	}
	// The newest 4 survive: 0x30,0x40,0x50,0x60 (popped newest-first).
	for _, want := range []uint64{0x60, 0x50, 0x40, 0x30} {
		if a, ok := p.Pop(); !ok || a != want {
			t.Fatalf("Pop = %#x, want %#x", a, want)
		}
	}
}

func TestPredictInstUnconditional(t *testing.T) {
	p := New(small())
	taken, _ := p.PredictInst(isa.Inst{Op: isa.OpJump}, 0x100)
	if !taken {
		t.Error("jump must predict taken")
	}
	if p.Lookups != 0 {
		t.Error("unconditional branches must not consult direction tables")
	}
	taken2, _ := p.PredictInst(isa.Inst{Op: isa.OpBeqz}, 0x104)
	_ = taken2
	if p.Lookups != 1 {
		t.Error("conditional branch should count a lookup")
	}
}

func TestDistinctBranchesDoNotInterfere(t *testing.T) {
	p := New(Config{
		BimodalEntries: 1024, GshareEntries: 1024, SelectorEntries: 1024,
		BTBEntries: 64, BTBWays: 4, RASEntries: 4,
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

// TestTable3Storage: at Table 3 sizes a predictor holds 86,528 bytes
// (84.5 KiB): three 16k-entry counter tables at four counters a byte,
// the BTB's 8k tags and LRU ages, and the 64-entry RAS. One byte per
// counter and a stored target per BTB entry took 188,928 (184.5 KiB).
func TestTable3Storage(t *testing.T) {
	p := New(DefaultConfig())
	bytes := len(p.bimodal) + len(p.gshare) + len(p.selector) +
		8*len(p.btbTags) + len(p.btbLRU) + 8*len(p.ras)
	if bytes != 86528 {
		t.Errorf("Table 3 predictor holds %d bytes, want 86528", bytes)
	}
}
