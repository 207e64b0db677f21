// The spec→machine compiler: lower a declarative litmus test to one
// prog.Program with a per-core section pinned to each core of an MP
// system machine. A section's only memory instructions are its
// thread's loads and stores, in order, so Extract reads the run's
// Outcome from the cores' committed consistency streams by position.

package litmus

import (
	"fmt"

	"vbmo/internal/isa"
	"vbmo/internal/prog"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// Register conventions of compiled litmus code. Location addresses are
// preloaded into registers by the per-core initial state; store values
// are materialized with lui.
const (
	rAddr0 = isa.Reg(1)  // address of location 0 (loc i at rAddr0+i)
	rVal   = isa.Reg(16) // store value scratch
	rPad   = isa.Reg(20) // skew-prologue filler accumulator
	rObs0  = isa.Reg(24) // first observation register (load i of a thread)
)

// Entry is the compiled program's entry PC (thread 0's section).
const Entry = uint64(0x4000)

// LocAddr maps a litmus location to its word address: each location
// gets its own cache block at the base of the shared segment, so the
// tests contend exactly where the MP workloads' hot set lives.
func LocAddr(loc Loc) uint64 { return workload.SharedBase + uint64(loc)*64 }

// Compiled is the machine form of a litmus test.
type Compiled struct {
	Test *Test
	Prog *prog.Program
	// Inits holds one per-core initial state; Inits[c].PC selects core
	// c's section of the program.
	Inits []prog.ArchState
	// Addrs is the word address of each location.
	Addrs []uint64
	// MinCommits is the per-core commit target that guarantees every
	// test operation has committed (the spin epilogue covers the rest).
	MinCommits uint64
}

// Compile lowers the test. skew, when non-nil, gives each thread a
// straight-line filler prologue of that many instructions — the sweep
// runner's timing perturbation that staggers the threads' entry into
// the test body. Threads beyond len(skew) get no prologue.
func Compile(t *Test, skew []int) *Compiled {
	return CompileOn(t, skew, 0)
}

// CompileOn is Compile for a machine with the given core count. A test
// has a fixed thread shape, so scaling the litmus sweep to a wider SMP
// (16-way; DESIGN.md §12) pads the extra cores with spin-only sections:
// they commit jumps, share the bus, and contribute snoop traffic and
// commit-target bookkeeping without touching the test's locations.
// cores below the thread count (including 0) compiles for exactly the
// test's threads.
func CompileOn(t *Test, skew []int, cores int) *Compiled {
	b := prog.NewBuilder(Entry)
	c := &Compiled{
		Test:  t,
		Inits: make([]prog.ArchState, 0, max(cores, len(t.Threads))),
		Addrs: make([]uint64, t.Locs),
	}
	for loc := range c.Addrs {
		c.Addrs[loc] = LocAddr(Loc(loc))
	}
	longest := 0
	for th, ops := range t.Threads {
		start := b.Pos()
		pad := 0
		if th < len(skew) {
			pad = skew[th]
		}
		for i := 0; i < pad; i++ {
			b.Emit(isa.Inst{Op: isa.OpAddI, Dst: rPad, Src1: rPad, Imm: 1})
		}
		slot := 0
		for _, op := range ops {
			switch op.Kind {
			case OpStore:
				b.Emit(isa.Inst{Op: isa.OpLui, Dst: rVal, Imm: int64(op.Val)})
				b.Emit(isa.Inst{Op: isa.OpStore, Src1: rAddr0 + isa.Reg(op.Loc), Src2: rVal})
			case OpLoad:
				b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rObs0 + isa.Reg(slot), Src1: rAddr0 + isa.Reg(op.Loc)})
				slot++
			case OpFence:
				b.Emit(isa.Inst{Op: isa.OpMembar})
			}
		}
		// Spin epilogue: the core keeps committing jumps so the system's
		// commit-target termination works for every thread length.
		spin := b.Here()
		b.Branch(isa.OpJump, 0, spin)

		var st prog.ArchState
		st.PC = Entry + uint64(start)*prog.InstBytes
		for loc := 0; loc < t.Locs; loc++ {
			st.WriteReg(rAddr0+isa.Reg(loc), c.Addrs[loc])
		}
		c.Inits = append(c.Inits, st)
		if n := b.Pos() - start; n > longest {
			longest = n
		}
	}
	for pad := len(t.Threads); pad < cores; pad++ {
		start := b.Pos()
		spin := b.Here()
		b.Branch(isa.OpJump, 0, spin)
		var st prog.ArchState
		st.PC = Entry + uint64(start)*prog.InstBytes
		c.Inits = append(c.Inits, st)
	}
	c.Prog = b.Build()
	c.MinCommits = uint64(longest) + 4
	return c
}

// InitImage writes the test's declared initial values into the shared
// memory image (before the run starts, so the shadow image still
// attributes first reads to the initial value).
func (c *Compiled) InitImage(s *system.System) {
	for loc, addr := range c.Addrs {
		s.Image.Write(addr, c.Test.InitVal(Loc(loc)))
	}
}

// Extract reads the run's Outcome from the system: observed load
// values from the cores' committed streams (system.Ops), and final
// memory values from the image. Thread th's k-th load or store is
// element k of core th's stream, since a compiled section has no other
// memory instructions; only committed loads are in a stream, so
// squashed premature attempts are invisible, exactly as they should
// be. ok is false when some test load never committed (the run hit its
// cycle bound early). The machine must track consistency.
func (c *Compiled) Extract(s *system.System) (Outcome, bool) {
	o := Outcome{
		Loads: make([]uint64, c.Test.NumLoads()),
		Final: make([]uint64, c.Test.Locs),
	}
	procs, _ := s.Ops()
	ok, slot := true, 0
	for th, ops := range c.Test.Threads {
		committed, k := procs[th].Len(), 0
		for _, op := range ops {
			if op.Kind == OpFence {
				continue
			}
			if op.Kind == OpLoad {
				if k < committed {
					o.Loads[slot] = procs[th].At(k).Value
				} else {
					ok = false
				}
				slot++
			}
			k++
		}
	}
	for loc, addr := range c.Addrs {
		o.Final[loc] = s.Image.Read(addr)
	}
	return o, ok
}

// String renders the compiled program's disassembly with section
// markers (debugging aid).
func (c *Compiled) String() string {
	s := fmt.Sprintf("litmus %s: %d threads, %d locs\n", c.Test.Name, len(c.Inits), c.Test.Locs)
	return s + c.Prog.String()
}
