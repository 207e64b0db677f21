package prog

import (
	"testing"
	"testing/quick"

	"vbmo/internal/isa"
)

func TestImageBackgroundDeterministic(t *testing.T) {
	a := NewImage(42)
	b := NewImage(42)
	c := NewImage(43)
	for addr := uint64(0); addr < 1<<16; addr += 8 {
		if a.Read(addr) != b.Read(addr) {
			t.Fatalf("same-seed images disagree at %#x", addr)
		}
	}
	same := 0
	for addr := uint64(0); addr < 1<<12; addr += 8 {
		if a.Read(addr) == c.Read(addr) {
			same++
		}
	}
	if same > 4 {
		t.Errorf("different seeds produce %d identical words of 512", same)
	}
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage(1)
	im.Write(0x1000, 99)
	if got := im.Read(0x1000); got != 99 {
		t.Errorf("Read = %d, want 99", got)
	}
	// Unaligned access aligns down.
	im.Write(0x2003, 7)
	if got := im.Read(0x2000); got != 7 {
		t.Errorf("unaligned write should align down; Read(0x2000) = %d", got)
	}
	if got := im.Read(0x2005); got != 7 {
		t.Errorf("unaligned read should align down; got %d", got)
	}
}

func TestImageSilentStoreDetection(t *testing.T) {
	im := NewImage(7)
	v := im.Read(0x4000)
	if !im.Write(0x4000, v) {
		t.Error("writing the existing value should be silent")
	}
	if im.Write(0x4000, v+1) {
		t.Error("writing a different value is not silent")
	}
	if !im.Write(0x4000, v+1) {
		t.Error("rewriting the same value is silent")
	}
}

func TestImageWriteReadProperty(t *testing.T) {
	im := NewImage(3)
	err := quick.Check(func(addr, val uint64) bool {
		im.Write(addr, val)
		return im.Read(addr) == val
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestImageReset requires a reset image to act as a fresh one of the
// new seed: the same background, silent-store answers and page
// promotions, with no page, overlay word or cached page left over.
func TestImageReset(t *testing.T) {
	// dirty materializes page 0 through the one-page cache and leaves
	// overlay words on two more pages.
	dirty := func(im *Image) {
		for i := 0; i < promoteWords; i++ {
			im.Write(uint64(i)*8, uint64(i))
		}
		im.Read(0)
		im.Write(1<<20, 5)
		im.Write(2<<20+8, 6)
	}
	im := NewImage(3)
	dirty(im)
	im.Reset(9)
	fresh := NewImage(9)
	if im.Pages() != 0 {
		t.Fatalf("reset image kept %d pages", im.Pages())
	}
	for _, a := range []uint64{0, 8 * (promoteWords - 1), 1 << 20, 2<<20 + 8} {
		if got, want := im.Read(a), fresh.Read(a); got != want {
			t.Errorf("Read(%#x) = %d after Reset, fresh image reads %d", a, got, want)
		}
	}
	// Both images take the same writes alike, on a page the dirty image
	// materialized and on one it left overlay words on, and promote
	// each page at the same write.
	for i := 0; i < 2*promoteWords; i++ {
		for _, a := range []uint64{uint64(i) * 8, 1<<20 + uint64(i)*8} {
			v := uint64(i % 3)
			if im.Write(a, v) != fresh.Write(a, v) {
				t.Fatalf("write to %#x: silent answers differ", a)
			}
		}
		if im.Pages() != fresh.Pages() {
			t.Fatalf("after %d writes per page: %d pages, fresh image %d", i+1, im.Pages(), fresh.Pages())
		}
	}
	for a := uint64(0); a < 1<<pageShift; a += 8 {
		if im.Read(a) != fresh.Read(a) || im.Read(1<<20+a) != fresh.Read(1<<20+a) {
			t.Fatalf("Read(%#x) differs from a fresh image", a)
		}
	}
}

func TestImagePagesSparse(t *testing.T) {
	im := NewImage(0)
	for i := 0; i < 100; i++ {
		im.Read(uint64(i) << 20) // reads do not materialize pages
	}
	if im.Pages() != 0 {
		t.Errorf("reads materialized %d pages", im.Pages())
	}
	// Scattered single writes stay in the sparse overlay: no page
	// arrays for a pointer chase that dirties one word per page.
	im.Write(0, 1)
	im.Write(1<<20, 1)
	if im.Pages() != 0 {
		t.Errorf("scattered writes materialized %d pages", im.Pages())
	}
	if im.Read(0) != 1 || im.Read(1<<20) != 1 {
		t.Error("sparse overlay lost a written value")
	}
}

func TestImagePagePromotion(t *testing.T) {
	im := NewImage(7)
	// Remember what the whole page should look like after the writes.
	want := make([]uint64, pageWords)
	for i := range want {
		want[i] = im.Background(uint64(i) * 8)
	}
	// Write just enough distinct words to trigger promotion, plus one
	// rewrite that must not count twice.
	for i := 0; i < promoteWords-1; i++ {
		im.Write(uint64(i)*8, uint64(100+i))
		want[i] = uint64(100 + i)
	}
	im.Write(0, 100) // rewrite of an already-written word
	if im.Pages() != 0 {
		t.Fatalf("promoted after %d distinct words, want %d", promoteWords-1, promoteWords)
	}
	im.Write(uint64(promoteWords-1)*8, 999)
	want[promoteWords-1] = 999
	if im.Pages() != 1 {
		t.Fatalf("Pages = %d after %d distinct words, want 1", im.Pages(), promoteWords)
	}
	// Every word — written or background — must read identically
	// across the promotion.
	for i := range want {
		if got := im.Read(uint64(i) * 8); got != want[i] {
			t.Fatalf("word %d = %#x after promotion, want %#x", i, got, want[i])
		}
	}
	// Silent-store detection must agree with the materialized state.
	if !im.Write(8, 101) {
		t.Error("rewrite of same value not silent after promotion")
	}
	if im.Write(8, 42) {
		t.Error("value change reported silent after promotion")
	}
}

func TestArchStateR0(t *testing.T) {
	var s ArchState
	s.WriteReg(isa.RZero, 55)
	if s.ReadReg(isa.RZero) != 0 {
		t.Error("R0 must read as zero")
	}
	s.WriteReg(5, 55)
	if s.ReadReg(5) != 55 {
		t.Error("regular register write lost")
	}
}

// buildCountdownLoop builds: r1 = n; loop: r1 = r1 - 1 (via addi -1);
// store r1 -> [r2]; load r3 <- [r2]; bnez r1, loop; then jump to self.
func buildCountdownLoop(n int64) *Program {
	b := NewBuilder(0x1000)
	b.Emit(isa.Inst{Op: isa.OpLui, Dst: 1, Imm: n})
	b.Emit(isa.Inst{Op: isa.OpLui, Dst: 2, Imm: 0x8000})
	loop := b.Here()
	b.Emit(isa.Inst{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: -1})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 2, Src2: 1})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 3, Src1: 2})
	b.Branch(isa.OpBnez, 1, loop)
	end := b.Here()
	b.Branch(isa.OpJump, 0, end)
	return b.Build()
}

func TestExecutorCountdownLoop(t *testing.T) {
	p := buildCountdownLoop(3)
	im := NewImage(9)
	ex := NewExecutor(p, im, ArchState{})
	// 2 setup + 3 iterations * 4 instructions = 14 instructions.
	recs := ex.Run(14)
	if ex.InstRet != 14 {
		t.Fatalf("InstRet = %d", ex.InstRet)
	}
	// After 3 iterations r1 == 0, memory holds 0.
	if got := im.Read(0x8000); got != 0 {
		t.Errorf("final store value = %d, want 0", got)
	}
	if ex.State.ReadReg(3) != 0 {
		t.Errorf("load result = %d, want 0", ex.State.ReadReg(3))
	}
	// The final bnez must be not-taken.
	last := recs[13]
	if last.Op != isa.OpBnez || last.Taken {
		t.Errorf("iteration-ending branch: op=%v taken=%v", last.Op, last.Taken)
	}
	// Loads observe the value just stored (RAW through memory).
	for _, r := range recs {
		if r.Op == isa.OpLoad && r.Addr != 0x8000 {
			t.Errorf("unexpected load address %#x", r.Addr)
		}
	}
}

// TestExecMatchesStep: the record-free step and Step execute the same
// instructions with the same effects, and Step's record carries what
// Exec returned: class, result, address and branch outcome.
func TestExecMatchesStep(t *testing.T) {
	p := buildCountdownLoop(4)
	rec := NewExecutor(p, NewImage(3), ArchState{})
	bare := NewExecutor(p, NewImage(3), ArchState{})
	for i := 0; i < 40; i++ {
		c := rec.Step()
		cls, result, addr := bare.Exec()
		if cls != c.Op.Class() || addr != c.Addr {
			t.Fatalf("step %d: Exec class %v addr %#x, Step %+v", i, cls, addr, c)
		}
		if cls == isa.ClassBranch && (result != 0) != c.Taken || cls != isa.ClassBranch && result != c.Result {
			t.Fatalf("step %d: Exec result %d, Step %+v", i, result, c)
		}
		if rec.State != bare.State || rec.InstRet != bare.InstRet {
			t.Fatalf("step %d: architectural state diverged", i)
		}
	}
	if rec.Mem.Read(0x8000) != bare.Mem.Read(0x8000) {
		t.Fatal("memory diverged")
	}
}

func TestExecutorJumpSelfLoops(t *testing.T) {
	p := buildCountdownLoop(1)
	ex := NewExecutor(p, NewImage(0), ArchState{})
	recs := ex.Run(20)
	// After setup(2)+iter(4), the program spins on the self-jump.
	for _, r := range recs[6:] {
		if r.Op != isa.OpJump || !r.Taken {
			t.Fatalf("expected self-jump spin, got %v", r.Op)
		}
	}
}

func TestFetchOutsideProgram(t *testing.T) {
	p := &Program{Entry: 0x1000, Code: []isa.Inst{{Op: isa.OpAdd}}}
	if _, ok := p.Fetch(0x0ff0); ok {
		t.Error("fetch below entry should fail")
	}
	if _, ok := p.Fetch(0x1004); ok {
		t.Error("fetch past end should fail")
	}
	if in, ok := p.Fetch(0x1000); !ok || in.Op != isa.OpAdd {
		t.Error("fetch at entry failed")
	}
}

func TestBuilderForwardBackwardBranches(t *testing.T) {
	b := NewBuilder(0)
	fwd := b.NewLabel()
	b.Branch(isa.OpJump, 0, fwd) // index 0
	b.Emit(isa.Inst{Op: isa.OpNop})
	b.Bind(fwd) // index 2
	back := b.Here()
	b.Branch(isa.OpBeqz, 1, back) // index 2, displacement 0
	p := b.Build()
	if p.Code[0].Imm != 2 {
		t.Errorf("forward displacement = %d, want 2", p.Code[0].Imm)
	}
	if p.Code[2].Imm != 0 {
		t.Errorf("backward displacement = %d, want 0", p.Code[2].Imm)
	}
	// NextPC honors displacements in slots.
	if got := p.NextPC(p.Code[0], 0, true); got != 2*InstBytes {
		t.Errorf("NextPC taken = %#x", got)
	}
	if got := p.NextPC(p.Code[0], 0, false); got != InstBytes {
		t.Errorf("NextPC fallthrough = %#x", got)
	}
}

func TestBuilderUnboundLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with unbound label should panic")
		}
	}()
	b := NewBuilder(0)
	b.Branch(isa.OpJump, 0, b.NewLabel())
	b.Build()
}

func TestExecutorDeterminism(t *testing.T) {
	run := func() []Committed {
		p := buildCountdownLoop(50)
		return NewExecutor(p, NewImage(77), ArchState{}).Run(300)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic execution at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
