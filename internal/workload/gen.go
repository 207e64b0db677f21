package workload

import (
	"sync"

	"vbmo/internal/isa"
	"vbmo/internal/prog"
)

// Memory layout. Each core owns a private data segment; multiprocessor
// workloads also access one shared segment whose first HotBlocks cache
// blocks form the contended hot set.
const (
	// PrivateBase0 is core 0's private segment base.
	PrivateBase0 = uint64(1) << 32
	// PrivateStride separates consecutive cores' private segments.
	PrivateStride = uint64(1) << 28
	// SharedBase is the shared segment base address.
	SharedBase = uint64(1) << 40
	// SharedSize is the shared segment size in bytes.
	SharedSize = 1 << 20
	// HotBlocks is the number of contended 64-byte blocks.
	HotBlocks = 8
	// IOBase is the coherent memory-mapped I/O buffer region base; it
	// must match coherence.IOBase (asserted in the system package).
	IOBase = uint64(1) << 44
	// IOBlocks is the I/O buffer ring size in cache blocks.
	IOBlocks = 64
	// Entry is the program entry PC.
	Entry = uint64(0x10000)
)

// Register conventions used by generated programs.
const (
	rPrivBase  = isa.Reg(1)  // private segment base
	rPrivMask  = isa.Reg(2)  // private working-set mask
	rLCG       = isa.Reg(3)  // linear congruential generator state
	rChase     = isa.Reg(4)  // pointer-chase cursor
	rShrBase   = isa.Reg(5)  // shared segment base
	rShrMask   = isa.Reg(6)  // shared segment mask
	rHotMask   = isa.Reg(7)  // hot-set block mask (block-aligned bits)
	rBase      = isa.Reg(8)  // current block base address
	rBias      = isa.Reg(9)  // branch bias threshold (14-bit)
	rLoop      = isa.Reg(10) // inner countdown loop counter
	rT1        = isa.Reg(11) // scratch
	rT2        = isa.Reg(12) // scratch
	rT3        = isa.Reg(13) // scratch (late store address)
	rT4        = isa.Reg(14) // scratch (div result)
	rT5        = isa.Reg(15) // scratch
	rCoreWord  = isa.Reg(16) // per-core word offset for false sharing
	rShiftHi   = isa.Reg(17) // shift amount for branch condition bits
	rLCGMul    = isa.Reg(18) // LCG multiplier constant
	rShiftAddr = isa.Reg(19) // shift amount for address bits
	rVal0      = isa.Reg(20) // first of the rotating value registers
	numVals    = 12          // value registers r20..r31
	rShiftHi2  = isa.Reg(32) // alternate shift amount (decorrelates reuse)
	rBits14    = isa.Reg(33) // 14-bit mask for branch-bias comparisons
	rOne       = isa.Reg(34) // the constant 1
	rIOBase    = isa.Reg(35) // coherent I/O buffer region base
	rIOMask    = isa.Reg(36) // I/O region mask
)

// rng is a small deterministic xorshift64* generator used only at
// program-generation time.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// f64 returns a uniform float in [0,1).
func (r *rng) f64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance returns true with probability p.
func (r *rng) chance(p float64) bool { return r.f64() < p }

// probs are the per-emission sampling probabilities for each pattern
// category. They start at the Params mix targets and are calibrated
// (Generate runs the candidate program functionally and re-weights) so
// the realized dynamic mix tracks the targets despite the address-
// computation and branch-condition overhead each pattern carries.
type probs struct {
	load, store, branch float64
}

func (pr probs) normalized() probs {
	sum := pr.load + pr.store + pr.branch
	if sum > 0.92 {
		f := 0.92 / sum
		pr.load *= f
		pr.store *= f
		pr.branch *= f
	}
	return pr
}

// gen carries program-generation state.
type gen struct {
	b   *prog.Builder
	rnd *rng
	p   Params
	pp  probs

	memSinceBase int
	valNext      int
	baseCnt      int // base computations emitted (amortizes LCG advances)
	brCnt        int // data branches emitted (amortizes LCG advances)

	// open inner loop, if any
	loopOpen  bool
	loopLabel prog.Label
	loopLeft  int
}

func (g *gen) emit(in isa.Inst) {
	g.b.Emit(in)
}

// val returns the next rotating value register.
func (g *gen) val() isa.Reg {
	r := rVal0 + isa.Reg(g.valNext%numVals)
	g.valNext++
	return r
}

// advanceLCG emits the in-program random number generator step.
func (g *gen) advanceLCG() {
	g.emit(isa.Inst{Op: isa.OpMul, Dst: rLCG, Src1: rLCG, Src2: rLCGMul})
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: rLCG, Src1: rLCG, Imm: 0x2f39})
}

// newBase emits code computing a fresh block base address into rBase.
func (g *gen) newBase() {
	g.memSinceBase = 0
	g.baseCnt++
	if g.rnd.chance(g.p.IOFrac) {
		// Rare read of the coherent I/O buffer region the DMA agent
		// writes: the resulting fills are externally sourced and the
		// DMA's invalidations become visible to this core.
		g.advanceLCG()
		g.emit(isa.Inst{Op: isa.OpShr, Dst: rT1, Src1: rLCG, Src2: rShiftAddr})
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT1, Src1: rT1, Src2: rIOMask})
		g.emit(isa.Inst{Op: isa.OpAdd, Dst: rBase, Src1: rIOBase, Src2: rT1})
		return
	}
	shared := g.p.Multi && g.rnd.chance(g.p.SharedFrac)
	if !shared && g.rnd.chance(g.p.PointerChase) {
		// Pointer chase: derive the next cursor from the last chased
		// value so consecutive bases form a load-to-load dependence
		// chain.
		g.emit(isa.Inst{Op: isa.OpLoad, Dst: rT1, Src1: rChase})
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT1, Src1: rT1, Src2: rPrivMask})
		g.emit(isa.Inst{Op: isa.OpAdd, Dst: rChase, Src1: rPrivBase, Src2: rT1})
		g.emit(isa.Inst{Op: isa.OpOr, Dst: rBase, Src1: rChase, Src2: isa.RZero})
		return
	}
	if !shared && g.rnd.chance(g.p.Stream) {
		// Streaming access: advance to the next cache block. The walk
		// re-anchors inside the working set at the next random base, so
		// drift past the mask is bounded and negligible.
		g.emit(isa.Inst{Op: isa.OpAddI, Dst: rBase, Src1: rBase, Imm: 64})
		return
	}
	// Random jump within the working set (or shared segment). The LCG
	// advances only every other jump; alternate jumps reuse its high
	// bits via a second shift amount.
	shift := rShiftAddr
	if g.baseCnt%2 == 1 {
		g.advanceLCG()
	} else {
		shift = rShiftHi2
	}
	g.emit(isa.Inst{Op: isa.OpShr, Dst: rT1, Src1: rLCG, Src2: shift})
	if shared && g.rnd.chance(g.p.HotFrac) {
		// Contended hot set: block-aligned offset within the hot
		// blocks; false sharing adds a per-core word offset.
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT1, Src1: rT1, Src2: rHotMask})
		if g.rnd.chance(g.p.FalseSharing) {
			g.emit(isa.Inst{Op: isa.OpAdd, Dst: rT1, Src1: rT1, Src2: rCoreWord})
		}
		g.emit(isa.Inst{Op: isa.OpAdd, Dst: rBase, Src1: rShrBase, Src2: rT1})
		return
	}
	if shared {
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT1, Src1: rT1, Src2: rShrMask})
		g.emit(isa.Inst{Op: isa.OpAdd, Dst: rBase, Src1: rShrBase, Src2: rT1})
		return
	}
	g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT1, Src1: rT1, Src2: rPrivMask})
	g.emit(isa.Inst{Op: isa.OpAdd, Dst: rBase, Src1: rPrivBase, Src2: rT1})
}

func (g *gen) ensureBase() {
	if g.memSinceBase >= g.p.Locality {
		g.newBase()
	}
}

func (g *gen) off() int64 {
	return int64(g.rnd.intn(8)) * 8
}

// emitLoad emits one load (plus any base computation it needs). In
// floating-point workloads a dependent FP operation often consumes the
// loaded value — the load-use chains that give apsi/art/wupwise their
// high reorder-buffer occupancy.
func (g *gen) emitLoad() {
	g.ensureBase()
	g.memSinceBase++
	dst := g.val()
	g.emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: rBase, Imm: g.off()})
	if g.rnd.chance(g.p.FPFrac * 0.6) {
		other := rVal0 + isa.Reg(g.rnd.intn(numVals))
		g.emit(isa.Inst{Op: isa.OpFAdd, Dst: g.val(), Src1: dst, Src2: other})
	}
}

// emitStore emits one store, with the silent-store, late-address,
// RAW-hazard and forwarding variations the experiments depend on.
func (g *gen) emitStore() {
	g.ensureBase()
	g.memSinceBase++
	off := g.off()
	silent := g.rnd.chance(g.p.SilentStores)
	var src isa.Reg
	if silent {
		// Store value locality: re-store the value already in memory.
		src = g.val()
		g.emit(isa.Inst{Op: isa.OpLoad, Dst: src, Src1: rBase, Imm: off})
	} else {
		src = rVal0 + isa.Reg(g.rnd.intn(numVals))
	}
	if g.rnd.chance(g.p.StoreAddrLate) {
		// Late-resolving store address: rT3 equals rBase but only after
		// a 12-cycle divide completes, so younger loads issue while
		// this store's address is unresolved (Figure 1(a) setup).
		g.emit(isa.Inst{Op: isa.OpDiv, Dst: rT4, Src1: rLCG, Src2: rBias})
		g.emit(isa.Inst{Op: isa.OpXor, Dst: rT5, Src1: rT4, Src2: rT4})
		g.emit(isa.Inst{Op: isa.OpAdd, Dst: rT3, Src1: rBase, Src2: rT5})
		g.emit(isa.Inst{Op: isa.OpStore, Src1: rT3, Src2: src, Imm: off})
		if g.rnd.chance(g.p.RAWHazard) {
			// The premature-load scenario: this load's address is ready
			// immediately, so it can issue before the store above
			// resolves. When the store was silent the premature value
			// is still correct — the squash the baseline load queue
			// takes is unnecessary, and value-based replay avoids it.
			g.emit(isa.Inst{Op: isa.OpLoad, Dst: g.val(), Src1: rBase, Imm: off})
		}
	} else {
		g.emit(isa.Inst{Op: isa.OpStore, Src1: rBase, Src2: src, Imm: off})
		if g.rnd.chance(g.p.ForwardFrac) {
			// Same-address load with both addresses resolved: exercises
			// store-to-load forwarding from the store queue.
			g.emit(isa.Inst{Op: isa.OpLoad, Dst: g.val(), Src1: rBase, Imm: off})
		}
	}
	if g.p.Multi && g.rnd.chance(g.p.Barriers) {
		g.emit(isa.Inst{Op: isa.OpMembar})
	}
}

// emitALU emits one arithmetic instruction on the rotating value
// registers, classed per the FP/Mul/Div mix.
func (g *gen) emitALU() {
	a := rVal0 + isa.Reg(g.rnd.intn(numVals))
	b := rVal0 + isa.Reg(g.rnd.intn(numVals))
	d := g.val()
	roll := g.rnd.f64()
	var op isa.Opcode
	switch {
	case roll < g.p.DivFrac:
		op = isa.OpDiv
	case roll < g.p.DivFrac+g.p.MulFrac:
		op = isa.OpMul
	case roll < g.p.DivFrac+g.p.MulFrac+g.p.FPFrac:
		op = []isa.Opcode{isa.OpFAdd, isa.OpFMul, isa.OpFDiv}[g.rnd.intn(3)]
	default:
		op = []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpOr, isa.OpAnd, isa.OpSltu}[g.rnd.intn(6)]
	}
	g.emit(isa.Inst{Op: op, Dst: d, Src1: a, Src2: b})
}

// emitBranch emits either a data-dependent biased forward branch or
// opens an inner countdown loop.
func (g *gen) emitBranch() {
	if !g.loopOpen && !g.rnd.chance(g.p.RandomBranches) {
		// Open a countdown loop; its body is whatever the main
		// emission loop produces until loopLeft instructions pass.
		g.emit(isa.Inst{Op: isa.OpLui, Dst: rLoop, Imm: int64(g.p.LoopTrip)})
		g.loopLabel = g.b.Here()
		g.loopOpen = true
		g.loopLeft = 8 + g.rnd.intn(12)
		return
	}
	g.brCnt++
	skip := g.b.NewLabel()
	if g.p.BranchBias > 0.38 && g.p.BranchBias < 0.62 {
		// Near-50/50 data branch: test the low bit of a recently
		// computed value register, the way real code branches on
		// values it already has in hand. One overhead instruction.
		src := rVal0 + isa.Reg(g.rnd.intn(numVals))
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT2, Src1: src, Src2: rOne})
		g.b.Branch(isa.OpBnez, rT2, skip)
	} else {
		// Strongly biased branch: compare fresh LCG bits against the
		// bias threshold; taken with probability rBias/2^14. The LCG
		// advances only every fourth such branch, with rotating shift
		// amounts decorrelating the reused bits.
		if g.brCnt%4 == 1 {
			g.advanceLCG()
		}
		shift := rShiftHi
		if g.brCnt%2 == 0 {
			shift = rShiftHi2
		}
		g.emit(isa.Inst{Op: isa.OpShr, Dst: rT2, Src1: rLCG, Src2: shift})
		g.emit(isa.Inst{Op: isa.OpAnd, Dst: rT2, Src1: rT2, Src2: rBits14})
		g.emit(isa.Inst{Op: isa.OpSltu, Dst: rT2, Src1: rT2, Src2: rBias})
		g.b.Branch(isa.OpBnez, rT2, skip)
	}
	g.emitALU()
	g.b.Bind(skip)
}

// closeLoop emits the countdown decrement and backward branch.
func (g *gen) closeLoop() {
	g.emit(isa.Inst{Op: isa.OpAddI, Dst: rLoop, Src1: rLoop, Imm: -1})
	g.b.Branch(isa.OpBnez, rLoop, g.loopLabel)
	g.loopOpen = false
}

// generateOnce builds one candidate program with the given sampling
// probabilities on b, which it resets first.
func generateOnce(b *prog.Builder, p Params, seed uint64, pp probs) *prog.Program {
	b.Reset()
	g := &gen{b: b, rnd: newRng(seed), p: p, pp: pp.normalized()}
	// The last pattern, a loop close and the closing jump run past
	// CodeSize by at most 15 instructions.
	g.b.Grow(p.CodeSize + 16)
	top := g.b.Here()
	targetStatic := p.CodeSize
	for g.b.Pos() < targetStatic {
		if g.loopOpen {
			g.loopLeft--
			if g.loopLeft <= 0 {
				g.closeLoop()
				continue
			}
		}
		r := g.rnd.f64()
		switch {
		case r < g.pp.load:
			g.emitLoad()
		case r < g.pp.load+g.pp.store:
			g.emitStore()
		case r < g.pp.load+g.pp.store+g.pp.branch:
			g.emitBranch()
		default:
			g.emitALU()
		}
	}
	if g.loopOpen {
		g.closeLoop()
	}
	g.b.Branch(isa.OpJump, 0, top)
	return g.b.Build()
}

// measureMix functionally executes n instructions of pr and returns the
// realized load/store/branch dynamic fractions.
func measureMix(p Params, pr *prog.Program, seed uint64, n int) probs {
	ex := prog.NewExecutor(pr, prog.NewImage(seed), InitState(p, 0, seed))
	var count [isa.NumClasses]int
	for i := 0; i < n; i++ {
		cls, _, _ := ex.Exec()
		count[cls]++
	}
	return probs{
		load:   float64(count[isa.ClassLoad]) / float64(n),
		store:  float64(count[isa.ClassStore]) / float64(n),
		branch: float64(count[isa.ClassBranch]) / float64(n),
	}
}

// genKey identifies one calibrated program: Params is a comparable
// value type, so (Params, seed) keys the memo directly.
type genKey struct {
	p    Params
	seed uint64
}

var genMemo struct {
	sync.Mutex
	m map[genKey]*prog.Program
}

// Generate builds the static program for the workload. All cores of a
// multiprocessor run execute the same program (SPMD); per-core data
// placement comes from InitState. Generation calibrates: it executes
// each candidate program functionally and re-weights the sampling
// probabilities so the realized dynamic mix tracks the Params targets.
//
// Generation is deterministic in (Params, seed) and the returned
// Program is read-only after construction, so results are memoized:
// experiment sweeps re-run the same workload across many machine
// configurations and samples, and each calibration costs three
// functional executions that the sweep need not repeat.
func Generate(p Params, seed uint64) *prog.Program {
	p = p.sane()
	key := genKey{p, seed}
	genMemo.Lock()
	if pr, ok := genMemo.m[key]; ok {
		genMemo.Unlock()
		return pr
	}
	genMemo.Unlock()
	pr := generate(p, seed)
	genMemo.Lock()
	if genMemo.m == nil {
		genMemo.m = make(map[genKey]*prog.Program)
	}
	genMemo.m[key] = pr
	genMemo.Unlock()
	return pr
}

// generate is the uncached calibration loop behind Generate.
func generate(p Params, seed uint64) *prog.Program {
	adj := probs{load: p.LoadFrac, store: p.StoreFrac, branch: p.BranchFrac}
	// The three candidates share one builder's storage: each earlier
	// one is dead once measured, and the last Build hands the storage
	// to the kept program.
	b := prog.NewBuilder(Entry)
	for iter := 0; ; iter++ {
		out := generateOnce(b, p, seed, adj)
		if iter == 2 {
			return out
		}
		m := measureMix(p, out, seed, 12000)
		adj.load *= ratio(p.LoadFrac, m.load)
		adj.store *= ratio(p.StoreFrac, m.store)
		adj.branch *= ratio(p.BranchFrac, m.branch)
	}
}

// ratio returns target/actual clamped to [0.5, 2.5] to keep the
// calibration loop stable.
func ratio(target, actual float64) float64 {
	if actual < 0.005 {
		actual = 0.005
	}
	r := target / actual
	if r < 0.5 {
		r = 0.5
	}
	if r > 2.5 {
		r = 2.5
	}
	return r
}

// InitState returns the architectural register state for the given core.
// Different cores receive different private bases, LCG seeds, and
// false-sharing word offsets.
func InitState(p Params, core int, seed uint64) prog.ArchState {
	p = p.sane()
	var s prog.ArchState
	priv := PrivateBase0 + uint64(core)*PrivateStride
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	bias := int64(p.BranchBias * 16384)
	if bias < 1 {
		bias = 1
	}
	s.WriteReg(rPrivBase, priv)
	s.WriteReg(rPrivMask, uint64(p.WorkingSet-1))
	s.WriteReg(rLCG, mix(seed+uint64(core)*7919)|1)
	s.WriteReg(rChase, priv)
	s.WriteReg(rShrBase, SharedBase)
	s.WriteReg(rShrMask, SharedSize-1)
	s.WriteReg(rHotMask, uint64(HotBlocks*64-1)&^63)
	s.WriteReg(rBase, priv)
	s.WriteReg(rBias, uint64(bias))
	s.WriteReg(rCoreWord, uint64(core%8)*8)
	s.WriteReg(rShiftHi, 50)
	s.WriteReg(rLCGMul, 6364136223846793005)
	s.WriteReg(rShiftAddr, 16)
	s.WriteReg(rShiftHi2, 36)
	s.WriteReg(rBits14, 0x3fff)
	s.WriteReg(rOne, 1)
	s.WriteReg(rIOBase, IOBase)
	s.WriteReg(rIOMask, IOBlocks*64-1)
	for i := 0; i < numVals; i++ {
		s.WriteReg(rVal0+isa.Reg(i), mix(seed^uint64(0xabc+i)))
	}
	return s
}
