// Package prog holds program representation and architectural state for
// the synthetic ISA: static programs, the shared memory image, and an
// in-order functional reference executor used as a correctness oracle.
//
// The memory image is the committed architectural memory. Speculative
// (premature) loads in the timing model read it at the moment they issue;
// stores update it only at commit. In a multiprocessor system all cores
// share one image, so the value a premature load observes depends on the
// global interleaving of commits — exactly the property the value-based
// replay mechanism checks.
package prog

import (
	"fmt"

	"vbmo/internal/isa"
)

// InstBytes is the size of one instruction slot; PCs advance by this.
const InstBytes = 4

// Program is a static instruction sequence. Instruction i lives at
// PC = Entry + i*InstBytes. Conditional branch displacements are in
// instruction slots relative to the branch.
type Program struct {
	// Entry is the PC of the first instruction.
	Entry uint64
	// Code is the instruction sequence.
	Code []isa.Inst
}

// Fetch returns the instruction at pc. ok is false when pc is outside
// the program (e.g. down a mispredicted wrong path); callers should treat
// that as a nop-like filler.
func (p *Program) Fetch(pc uint64) (isa.Inst, bool) {
	if pc < p.Entry {
		return isa.Inst{Op: isa.OpNop}, false
	}
	idx := (pc - p.Entry) / InstBytes
	if idx >= uint64(len(p.Code)) {
		return isa.Inst{Op: isa.OpNop}, false
	}
	return p.Code[idx], true
}

// Target returns the branch target of the instruction at pc.
func (p *Program) Target(in isa.Inst, pc uint64) uint64 {
	return pc + uint64(in.Imm)*InstBytes
}

// NextPC computes the successor PC given the branch outcome.
func (p *Program) NextPC(in isa.Inst, pc uint64, taken bool) uint64 {
	if in.IsBranch() && taken {
		return p.Target(in, pc)
	}
	return pc + InstBytes
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// String renders a short disassembly (first n instructions).
func (p *Program) String() string {
	s := ""
	for i, in := range p.Code {
		s += fmt.Sprintf("%4x: %s\n", p.Entry+uint64(i)*InstBytes, in)
	}
	return s
}

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
	pageMask  = (uint64(1) << pageShift) - 1
)

// Image is a sparse 64-bit word-addressable memory image. Uninitialized
// words read as a deterministic hash of their address, so fresh memory
// has varied, reproducible content. Image is not safe for concurrent
// use; the simulator runs all cores in lock-step on one goroutine.
//
// Lightly-written pages live as individual words in a sparse overlay;
// a page is materialized as a 4 KiB array only once enough distinct
// words have been written to it. Pointer-chase workloads scatter a few
// stores over thousands of pages, and eagerly materializing each page
// (one array allocation plus a 512-word background fill per page) was
// the dominant allocation source of the whole simulator on them.
type Image struct {
	pages map[uint64]*[pageWords]uint64
	// sparse holds written words of pages that are not materialized:
	// word-aligned address → value.
	sparse map[uint64]uint64
	// sparseWords counts the distinct written words per unmaterialized
	// page, to decide promotion.
	sparseWords map[uint64]uint16
	seed        uint64
	// One-entry page cache: loads and stores cluster within pages, so
	// remembering the last page touched short-circuits the map lookup on
	// the simulator's per-access hot path.
	lastPN uint64
	lastPG *[pageWords]uint64
}

// promoteWords is the distinct-written-word count at which a page stops
// being a sparse overlay and becomes a real array: 1/16 of the page,
// the break-even point between per-word map entries and the 4 KiB
// array given map bucket overhead.
const promoteWords = pageWords / 16

// NewImage creates an image whose background content is derived from
// seed.
func NewImage(seed uint64) *Image {
	return &Image{
		pages:       make(map[uint64]*[pageWords]uint64),
		sparse:      make(map[uint64]uint64),
		sparseWords: make(map[uint64]uint16),
		seed:        seed,
	}
}

// mix64 is the SplitMix64 finalizer, used to derive background memory
// content and workload data from addresses.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Background returns the initial (pre-write) content of the word at
// addr.
func (im *Image) Background(addr uint64) uint64 {
	return mix64((addr &^ 7) ^ im.seed)
}

// page returns the materialized page holding addr, or nil.
//
//vbr:hotpath
func (im *Image) page(addr uint64) *[pageWords]uint64 {
	pn := addr >> pageShift
	if pg := im.lastPG; pg != nil && im.lastPN == pn {
		return pg
	}
	pg := im.pages[pn]
	if pg != nil {
		im.lastPN, im.lastPG = pn, pg
	}
	return pg
}

// materialize promotes page pn from the sparse overlay to a real
// array: background fill, then the overlay words move in. Walking the
// page's word addresses (rather than ranging over the sparse map)
// keeps the fill order deterministic and the cost bounded by the page
// size. Cold by design: each page gets here at most once.
func (im *Image) materialize(pn uint64) *[pageWords]uint64 {
	pg := new([pageWords]uint64)
	base := pn << pageShift
	for i := range pg {
		a := base + uint64(i)*8
		if v, ok := im.sparse[a]; ok {
			pg[i] = v
			delete(im.sparse, a)
		} else {
			pg[i] = im.Background(a)
		}
	}
	im.pages[pn] = pg
	delete(im.sparseWords, pn)
	im.lastPN, im.lastPG = pn, pg
	return pg
}

// Read returns the 64-bit word at addr (aligned down to 8 bytes).
//
//vbr:hotpath
func (im *Image) Read(addr uint64) uint64 {
	addr &^= 7
	if pg := im.page(addr); pg != nil {
		return pg[(addr&pageMask)>>3]
	}
	if v, ok := im.sparse[addr]; ok {
		return v
	}
	return im.Background(addr)
}

// Write stores a 64-bit word at addr (aligned down to 8 bytes) and
// reports whether the store was silent (wrote the value already there).
//
//vbr:hotpath
func (im *Image) Write(addr, val uint64) (silent bool) {
	addr &^= 7
	if pg := im.page(addr); pg != nil {
		idx := (addr & pageMask) >> 3
		silent = pg[idx] == val
		pg[idx] = val
		return silent
	}
	old, wasWritten := im.sparse[addr]
	if !wasWritten {
		old = im.Background(addr)
	}
	silent = old == val
	im.sparse[addr] = val
	if !wasWritten {
		pn := addr >> pageShift
		if n := im.sparseWords[pn] + 1; n >= promoteWords {
			im.materialize(pn)
		} else {
			im.sparseWords[pn] = n
		}
	}
	return silent
}

// Pages reports how many pages have been materialized (for tests and
// footprint accounting). Pages whose writes all sit in the sparse
// overlay are not counted.
func (im *Image) Pages() int { return len(im.pages) }

// ArchState is per-processor architectural register state plus the PC.
type ArchState struct {
	PC   uint64
	Regs [isa.NumRegs]uint64
}

// ReadReg returns the architectural value of r (R0 reads as zero).
func (s *ArchState) ReadReg(r isa.Reg) uint64 {
	if r == isa.RZero {
		return 0
	}
	return s.Regs[r]
}

// WriteReg sets the architectural value of r (writes to R0 are ignored).
func (s *ArchState) WriteReg(r isa.Reg, v uint64) {
	if r != isa.RZero {
		s.Regs[r] = v
	}
}

// Committed describes one committed dynamic instruction, as produced by
// the reference executor and by the timing pipeline; equality of these
// streams is the machine-equivalence oracle for uniprocessor runs.
type Committed struct {
	Seq    uint64 // commit order, starting at 0
	PC     uint64
	Op     isa.Opcode
	Result uint64 // register result, or store value for stores
	Addr   uint64 // effective address for loads/stores
	Taken  bool   // branch outcome
}

// Executor runs a Program in order against an ArchState and an Image —
// the functional reference model.
type Executor struct {
	Prog  *Program
	State ArchState
	Mem   *Image
	// InstRet counts retired instructions.
	InstRet uint64
}

// NewExecutor creates a reference executor starting at the program
// entry, or at init.PC when it is nonzero (per-core entry points, as
// the timing pipeline honors them).
func NewExecutor(p *Program, mem *Image, init ArchState) *Executor {
	ex := &Executor{Prog: p, State: init, Mem: mem}
	if ex.State.PC == 0 {
		ex.State.PC = p.Entry
	}
	return ex
}

// Step executes one instruction and returns its committed record.
func (ex *Executor) Step() Committed {
	pc := ex.State.PC
	in, _ := ex.Prog.Fetch(pc)
	c := Committed{Seq: ex.InstRet, PC: pc, Op: in.Op}
	src1 := ex.State.ReadReg(in.Src1)
	src2 := ex.State.ReadReg(in.Src2)
	switch in.Class() {
	case isa.ClassLoad:
		c.Addr = in.EffAddr(src1)
		c.Result = ex.Mem.Read(c.Addr)
		ex.State.WriteReg(in.Dst, c.Result)
	case isa.ClassStore:
		c.Addr = in.EffAddr(src1)
		c.Result = src2
		ex.Mem.Write(c.Addr, src2)
	case isa.ClassBranch:
		c.Taken = in.BranchTaken(src1)
	case isa.ClassNop, isa.ClassMembar:
		// No architectural effect.
	default:
		c.Result = in.Eval(src1, src2)
		ex.State.WriteReg(in.Dst, c.Result)
	}
	ex.State.PC = ex.Prog.NextPC(in, pc, c.Taken)
	ex.InstRet++
	return c
}

// Run executes n instructions, returning the committed records.
func (ex *Executor) Run(n int) []Committed {
	out := make([]Committed, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ex.Step())
	}
	return out
}
