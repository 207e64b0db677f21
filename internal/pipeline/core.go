package pipeline

import (
	"math/bits"
	"sort"

	"vbmo/internal/bpred"
	"vbmo/internal/cache"
	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/core"
	"vbmo/internal/deppred"
	"vbmo/internal/fault"
	"vbmo/internal/isa"
	"vbmo/internal/lsq"
	"vbmo/internal/prog"
	"vbmo/internal/reuse"
	"vbmo/internal/trace"
	"vbmo/internal/vpred"
)

// Core is one out-of-order processor core.
type Core struct {
	ID  int
	cfg config.Machine

	prog *prog.Program
	mem  *prog.Image
	hier *cache.Hierarchy
	bp   *bpred.Predictor

	lq     loadTracker // the load queue: every in-flight load, in program order
	sq     *lsq.StoreQueue
	alq    *lsq.AssocLoadQueue // baseline machines: the CAM searches
	eng    *core.Engine        // value-replay machines
	ssets  *deppred.StoreSets
	simple *deppred.Simple
	vp     *vpred.LastValue // optional load-value predictor

	nextTag int64
	rob     entryRing // reorder buffer, capacity ROBSize
	pend    pendList  // issued, awaiting completion; preallocated
	psd     []handle  // stores awaiting data capture; preallocated
	pool    pool

	// Wake-up issue queue (DESIGN.md §18): entries by slot (0 when
	// free), the occupied slots, and the occupied slots whose issue
	// operands are all ready. Completions set iqReady bits through the
	// producers' wake masks. iqParked holds the loads whose operands are
	// ready but which a probe found blocked on a store: they sit outside
	// iqReady until an event that can change the answer wakes them, and
	// parked records, per slot, the store-queue counters that probe
	// bumped. Issue visits iqReady and iqParked.
	iq       [MaxIQSize]handle
	iqUsed   uint64
	iqReady  uint64
	iqParked uint64
	parked   parkCounts

	renameMap [isa.NumRegs]handle
	arch      prog.ArchState

	fetchPC         uint64
	fetchQ          fetchRing // fetch-to-dispatch buffer, capacity FetchBuf
	fetchStallUntil int64

	dispatchBarrier int64 // membar tag stalling dispatch, -1 when clear

	// replay sequencing. The commit-stage cache port budget is 1 in
	// the paper's design (stores have priority, replays compete); the
	// back-end-ports ablation widens it via ReplayPerCycle.
	portsUsed       int
	storeCommitted  bool
	lastReplayCycle int64
	noReplayPC      uint64 // rule-3 mark for the next dispatch of this PC
	noReplayArmed   bool

	cycle int64

	// ffStall is the dispatch stall kind the last Quiescent call
	// recorded, consumed by FastForward (see quiesce.go).
	ffStall stallKind

	// Stage-skip readiness layer (stageskip.go, DESIGN.md §14): cheap
	// per-stage predicates, maintained at enqueue/dequeue time, that let
	// Step elide a stage's scan when it provably has no work this cycle.
	// A skipped scan is exactly a scan that would have mutated nothing
	// and counted nothing, so skipping is bit-identical to full
	// stepping; skipOff (system.Options.NoStageSkip) scans every stage
	// every cycle but still maintains the state, which Quiescent reads.
	// Issue needs no flag of its own: it runs when iqReady is nonzero.
	skipOff     bool
	wbMinDue    int64 // lower bound on the earliest pending completion cycle
	psdQuiet    bool  // no store-data capture can progress until an event
	commitQuiet bool  // the ROB head cannot commit until an event
	replayWake  int64 // the replay scan sleeps before this cycle; noDue waits on an event
	replayBase  int   // settled ROB prefix the replay scan starts past

	// Skip counts the stage scans elided by the readiness layer; it
	// lives outside Stats so a skipping run's Result stays bit-identical
	// to a non-skipping one (same contract as the system's FFStats).
	Skip SkipStats
	// work counts the stage scans' host work (WorkStats), outside Stats
	// for the same reason.
	work WorkStats

	// CommitHook, if set, observes every committed instruction: the tap
	// the functional-oracle tests compare against the reference
	// executor.
	CommitHook func(prog.Committed)

	// Fault-injection switches (tests only): disable the baseline's
	// store-agen load-queue search, or the replay machine's value
	// comparison. They exist to prove the oracle and the consistency
	// checker detect the violations these mechanisms prevent.
	faultNoRAWCheck bool
	faultNoReplay   bool

	// Shadow, if set, tracks store identity for the constraint-graph
	// checker, and the core records each committed load and store in
	// ops. A store's identity is MakeWriter(ID, its store-queue handle),
	// which is its commit ordinal since Reset (DESIGN.md §24), so the
	// Shadow must be attached before the first Step. A load takes the
	// identity of the store it read at the instant it reads the value:
	// at a demand read, at forwarding, or at its replay.
	Shadow *consistency.Shadow
	// ops is the core's committed loads and stores in the checker's
	// form, recorded while a Shadow is attached; Reset and ResetStats
	// empty it and keep its storage.
	ops consistency.Stream

	// trace, when non-nil, receives the replay-lifecycle event stream
	// (DESIGN.md §6). Every emission site is guarded by one nil check so
	// the disabled path costs nothing; set it with SetTracer.
	trace *trace.Tracer

	// flt, when non-nil, is the adversarial fault injector (DESIGN.md
	// §10): it corrupts premature load values, suppresses filter
	// signals, and tracks each injection to its detection or escape.
	// Same contract as trace: every hook site is one nil check, so a
	// run without faults is bit-identical to an uninstrumented one.
	flt *fault.Injector

	Stats Stats
}

// MaxIQSize bounds config.Machine.IQSize: the issue queue's slot masks
// are 64-bit words.
const MaxIQSize = 64

// Sizes of the optional structures that every machine using them shares:
// the hash count of the load queue's Bloom filter (BloomCounters), the
// counter count of the two-level store queue's membership filter
// (SQL1Size), and the value predictor's table (UseValuePrediction).
const (
	bloomHashes      = 2
	sqFilterCounters = 1024
	vpredEntries     = 4096
)

// New builds a core running program p against the shared image, with
// the given cache hierarchy (already attached to its backend/bus).
func New(id int, cfg config.Machine, p *prog.Program, mem *prog.Image, hier *cache.Hierarchy, init prog.ArchState) *Core {
	c := new(Core)
	c.Reset(id, cfg, p, mem, hier, init)
	return c
}

// Reset rebuilds c in place as New would build it from the same
// arguments, keeping its storage (DESIGN.md §17): every predictor
// table, queue array and the entry slab is reused when its size fits.
// Only the ROB, pending and store-data slots the last run occupied are
// cleared; the slab is not cleared at all, because pool.get zeroes each
// entry as it hands it out, and the committed-operation stream is
// emptied. The hooks the system wires (Shadow, tracer, fault injector,
// stage skip) and a test's CommitHook are cleared and must be set again.
func (c *Core) Reset(id int, cfg config.Machine, p *prog.Program, mem *prog.Image, hier *cache.Hierarchy, init prog.ArchState) {
	// A nonzero init.PC selects a per-core entry point within the shared
	// program — litmus tests give every core its own section; SPMD
	// workloads leave PC zero and start at the program entry.
	entryPC := init.PC
	if entryPC == 0 {
		entryPC = p.Entry
	}
	eng, alq, ssets, vp := c.eng, c.alq, c.ssets, c.vp
	*c = Core{
		ID:              id,
		cfg:             cfg,
		prog:            p,
		mem:             mem,
		hier:            hier,
		bp:              reuse.Ptr(c.bp),
		sq:              reuse.Ptr(c.sq),
		simple:          reuse.Ptr(c.simple),
		arch:            init,
		fetchPC:         entryPC,
		dispatchBarrier: -1,
		lastReplayCycle: -1,
		wbMinDue:        noDue,
		rob:             c.rob,
		fetchQ:          c.fetchQ,
		psd:             reuse.Empty(c.psd, cfg.SQSize),
		pend:            c.pend,
		pool:            c.pool,
		lq:              c.lq,
		ops:             c.ops[:0],
	}
	c.rob.init(cfg.ROBSize)
	c.fetchQ.init(cfg.FetchBuf)
	c.pend.init(cfg.ROBSize)
	c.pool.init(cfg.ROBSize)
	c.lq.init(cfg.LQSize)
	c.arch.PC = entryPC
	c.bp.Reset(cfg.BP)
	c.sq.Reset(cfg.SQSize)
	if cfg.Scheme == config.ValueReplay {
		c.eng = reuse.Ptr(eng)
		c.eng.Reset(cfg.Filter)
	} else {
		c.alq = reuse.Ptr(alq)
		c.alq.Reset(cfg.LQMode, &c.lq.fifo.Window)
		if cfg.BloomCounters > 0 {
			c.alq.EnableBloom(cfg.BloomCounters, bloomHashes)
		}
	}
	if cfg.SQL1Size > 0 {
		c.sq.EnableTwoLevel(cfg.SQL1Size, cfg.SQL2Latency, sqFilterCounters)
	}
	if cfg.UseStoreSets {
		c.ssets = reuse.Ptr(ssets)
		c.ssets.Reset(cfg.SSITEntries, cfg.LFSTEntries)
	}
	if cfg.UseValuePrediction && cfg.Scheme == config.ValueReplay {
		c.vp = reuse.Ptr(vp)
		c.vp.Reset(vpredEntries)
	}
	c.simple.Reset(cfg.SimpleEntries)
}

// ValuePredictor exposes the load-value predictor (nil when disabled).
func (c *Core) ValuePredictor() *vpred.LastValue { return c.vp }

// Engine exposes the replay engine (nil on baseline machines).
func (c *Core) Engine() *core.Engine { return c.eng }

// LoadQueue exposes the associative load queue (nil on replay machines).
func (c *Core) LoadQueue() *lsq.AssocLoadQueue { return c.alq }

// StoreQueue exposes the store queue.
func (c *Core) StoreQueue() *lsq.StoreQueue { return c.sq }

// Hierarchy exposes the core's cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Predictor exposes the branch predictor.
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// SimplePredictor exposes the 1-bit dependence predictor.
func (c *Core) SimplePredictor() *deppred.Simple { return c.simple }

// Ops returns the loads and stores the core committed while its Shadow
// was attached, since the last Reset or ResetStats, in the
// constraint-graph checker's form. The stream is read in place: the
// next Reset or ResetStats reuses its storage.
func (c *Core) Ops() consistency.Stream { return c.ops }

// Work returns the core's host work counts since the last Reset or
// ResetStats.
func (c *Core) Work() WorkStats {
	w := c.work
	w.SQCompares = c.sq.Stats.Compared
	return w
}

// SetTracer attaches (or, with nil, detaches) the observability event
// stream. It also hooks the events only the queue structures can see
// (the hybrid load queue's snoop marks).
func (c *Core) SetTracer(t *trace.Tracer) {
	c.trace = t
	if c.alq == nil {
		return
	}
	if t == nil {
		c.alq.Emit = nil
		return
	}
	c.alq.Emit = func(kind trace.Kind, tag int64, pc, addr uint64) {
		t.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID), Kind: kind,
			Tag: tag, PC: pc, Addr: addr})
	}
}

// ROBLen returns the reorder buffer's current occupancy.
func (c *Core) ROBLen() int { return c.rob.Len() }

// IQLen returns the issue queue's current occupancy.
func (c *Core) IQLen() int { return bits.OnesCount64(c.iqUsed) }

// LQLen returns the load queue's current occupancy.
func (c *Core) LQLen() int { return c.lq.fifo.Len() }

// SQLen returns the store queue's current occupancy.
func (c *Core) SQLen() int { return c.sq.Len() }

// Step advances the core by one cycle. With the stage-skip readiness
// layer on (the default), each back-end stage scan runs only when its
// predicate says it might act; the skipped scans are exactly the ones
// that would have been no-ops, so both paths are bit-identical
// (DESIGN.md §14).
//
//vbr:hotpath
func (c *Core) Step() {
	c.work.Steps++
	c.portsUsed = 0
	c.storeCommitted = false
	if c.skipOff || c.writebackDue() {
		c.writeback()
	} else {
		c.Skip.Writeback++
	}
	if c.skipOff || c.captureDue() {
		c.captureStoreData()
	} else {
		c.Skip.Capture++
	}
	if c.skipOff || c.commitDue() {
		c.commit()
	} else {
		c.Skip.Commit++
	}
	if c.eng != nil {
		if c.skipOff || c.replayDue() {
			c.replayStage()
		} else {
			c.Skip.Replay++
		}
	}
	if c.skipOff || c.issueDue() {
		c.issue()
	} else {
		c.Skip.Issue++
		if c.iqParked != 0 {
			c.chargeParked(c.iqParked, 1) // the scan would have reached them all
		}
	}
	c.dispatch()
	c.fetch()
	c.Stats.ROBOccupancySum += uint64(c.rob.Len())
	c.Stats.Cycles++
	c.cycle++
}

// ---------------------------------------------------------------------
// Writeback: completions, branch resolution, store agen effects.

func (c *Core) writeback() {
	// Compact the pending list while processing completions. A squash
	// inside the loop truncates c.pend via squashFrom; the tag check
	// keeps iteration safe because we re-filter against the surviving
	// prefix below. The scan recomputes the earliest surviving
	// completion cycle for free, so Step can sleep the stage until it.
	min := noDue
	i := 0
	for i < c.pend.len() {
		c.work.Writeback++
		if d := c.pend.due[i]; d > c.cycle {
			if d < min {
				min = d
			}
			i++
			continue
		}
		e := c.pool.at(c.pend.entries[i])
		if e.done {
			i++
			continue
		}
		c.pend.swapRemove(i)
		if c.complete(e) {
			// A squash occurred; c.pend was rebuilt. Restart.
			i = 0
			min = noDue
		}
	}
	c.wbMinDue = min
}

// complete finishes one instruction; it reports whether a squash
// happened (invalidating iteration state).
func (c *Core) complete(e *entry) bool {
	e.done = true
	e.resultReady = true
	// A completion is the wake event for every sleeping back-end stage:
	// it can ready a consumer's operand, a store's data, or the head.
	c.wake(e)
	c.commitQuiet = false
	c.psdQuiet = false
	c.replayWake = 0
	switch {
	case e.isBranch:
		return c.resolveBranch(e)
	case e.isStore:
		// Store agen completing.
		e.agenDone = true
		c.sq.SetAddr(e.qh, e.addr)
		if e.dataDone {
			e.done = true
		} else {
			e.done = false
		}
		if c.alq != nil && !c.faultNoRAWCheck {
			if sqz, found := c.alq.OnStoreAgen(e.addr, e.tag); found {
				c.trainViolation(sqz.PC, e.pc)
				c.Stats.SquashesRAW++
				if c.trace != nil {
					c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
						Kind: trace.KSquash, Reason: trace.RSquashRAW,
						Tag: sqz.Tag, PC: sqz.PC, Addr: e.addr})
				}
				c.squashFrom(sqz.Tag, sqz.PC, false)
				return true
			}
		}
	case e.isLoad:
		c.lq.complete(e.qh)
	}
	return false
}

func (c *Core) resolveBranch(e *entry) bool {
	src1, _ := c.pool.srcReady(e, 1)
	e.taken = e.inst.BranchTaken(src1)
	if e.inst.IsConditional() {
		c.bp.Update(e.pc, e.taken, e.meta)
	}
	if e.taken {
		c.bp.BTBInstall(e.pc)
	}
	if e.taken != e.predTaken {
		c.Stats.SquashesMispredict++
		next := c.prog.NextPC(e.inst, e.pc, e.taken)
		if c.trace != nil {
			c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
				Kind: trace.KSquash, Reason: trace.RSquashMispredict,
				Tag: e.tag + 1, PC: e.pc})
		}
		c.squashFrom(e.tag+1, next, true)
		return true
	}
	return false
}

func (c *Core) trainViolation(loadPC, storePC uint64) {
	if c.ssets != nil {
		c.ssets.TrainViolation(loadPC, storePC)
	} else {
		c.trainSimple(loadPC)
	}
}

// trainSimple trains the simple dependence predictor on a violating
// load and wakes every parked load: the trained entry may alias a
// parked load's PC, and a load that now waits for an older unresolved
// store no longer searches the store queue.
func (c *Core) trainSimple(pc uint64) {
	c.simple.TrainViolation(pc)
	if c.iqParked != 0 {
		c.unpark(c.iqParked)
	}
}

// ---------------------------------------------------------------------
// Store data capture.

func (c *Core) captureStoreData() {
	i := 0
	for i < len(c.psd) {
		c.work.Capture++
		e := c.pool.at(c.psd[i])
		if e.dataDone {
			c.psd = swapRemove(c.psd, i)
			continue
		}
		if v, ok := c.pool.srcReady(e, 2); ok {
			e.value = v
			e.dataDone = true
			c.sq.SetData(e.qh, v)
			if c.iqParked != 0 {
				c.unpark(c.parkedAfter(e.tag)) // a load waiting to forward from e
			}
			if e.agenDone {
				e.done = true
				c.commitQuiet = false // the store may be the ROB head
			}
			c.psd = swapRemove(c.psd, i)
			continue
		}
		i++
	}
	// Every survivor is blocked on a producer that has not completed;
	// only a completion, a store dispatch, or a squash can change that.
	c.psdQuiet = true
}

// ---------------------------------------------------------------------
// Commit.

func (c *Core) commit() {
	for n := 0; n < c.cfg.Width && c.rob.Len() > 0; n++ {
		c.work.Commit++
		e := c.robAt(0)
		if !e.done {
			// Head blocked on completion: only a completion, a data
			// capture, a replay verdict, or a squash can unblock it, and
			// each of those clears the flag. (The port-limited returns
			// below must NOT sleep: they commit next cycle unaided.)
			c.commitQuiet = true
			return
		}
		if e.isStore {
			if c.storeCommitted || c.portsUsed >= c.portCap() {
				return // one store per cycle through the commit port
			}
			c.storeCommitted = true
			c.portsUsed++
			silent := c.mem.Write(e.addr, e.value)
			if silent {
				c.Stats.SilentStores++
			}
			if c.Shadow != nil {
				self := consistency.MakeWriter(c.ID, uint64(e.qh))
				c.Shadow.Write(e.addr, self, e.value)
				c.record(consistency.Op{Kind: consistency.OpStore, Addr: e.addr, Value: e.value, Self: self})
			}
			c.hier.Write(e.addr, c.cycle)
			c.Stats.StoreAccesses++
			c.Stats.CommittedStores++
			c.sq.Pop()
			if c.ssets != nil {
				c.ssets.StoreRetired(e.pc, e.tag)
			}
		}
		if e.isLoad {
			if c.eng != nil {
				if !e.replayedOK {
					// Must pass replay & compare first; every replayedOK
					// assignment (and squash) clears the flag.
					c.commitQuiet = true
					return
				}
				if c.vp != nil && !e.replayIssued {
					// Filtered loads train the value predictor at
					// commit (replayed loads trained at compare).
					c.vp.Train(e.pc, e.result, false)
				}
			} else {
				c.alq.Pop()
			}
			c.lq.pop()
			if e.valuePredicted {
				c.Stats.ValuePredictedCommitted++
			}
			if c.flt != nil {
				// An injection still unresolved here escaped every check:
				// the corrupted value just became architectural.
				c.flt.OnLoadCommit(c.ID, e.tag, c.cycle)
			}
			c.Stats.CommittedLoads++
			if c.Shadow != nil {
				c.record(consistency.Op{Kind: consistency.OpLoad, Addr: e.addr, Value: e.result, ReadsFrom: e.writer})
			}
		}
		if e.isBranch {
			c.Stats.CommittedBranches++
		}
		if e.writesReg {
			c.arch.WriteReg(e.inst.Dst, e.result)
			if c.renameMap[e.inst.Dst] == e.self {
				c.renameMap[e.inst.Dst] = 0
			}
			// Unlink unissued consumers before the entry is recycled:
			// they latch the value now instead of naming it. The
			// reference count makes the common no-consumer case O(1)
			// instead of an IQ+PSD scan.
			if e.consumers != 0 {
				c.unlink(e)
			}
		}
		if c.dispatchBarrier == e.tag {
			c.dispatchBarrier = -1
		}
		if c.CommitHook != nil {
			rec := prog.Committed{
				Seq: c.Stats.Committed, PC: e.pc, Op: e.inst.Op,
				Result: e.result, Addr: e.addr, Taken: e.taken,
			}
			if e.isStore {
				rec.Result = e.value
			}
			c.CommitHook(rec)
		}
		c.Stats.Committed++
		c.rob.PopFront()
		if c.replayBase > 0 {
			c.replayBase-- // ROB indices shifted down by one
		}
		c.replayWake = 0 // the replay window slid
		c.pool.put(e)
	}
	if c.rob.Len() == 0 {
		c.commitQuiet = true // dispatch into an empty ROB clears this
	}
}

// record appends a committed load or store to the checker stream,
// numbering it and aligning its address to the word.
func (c *Core) record(op consistency.Op) {
	op.Proc, op.Index, op.Addr = c.ID, c.ops.Len(), op.Addr&^7
	c.ops.Append(op)
}

// ---------------------------------------------------------------------
// Replay & compare stages (value-replay machines).

//vbr:hotpath
func (c *Core) replayStage() {
	budget := c.cfg.ReplayPerCycle
	depth := c.cfg.ReplayWindow
	if depth > c.rob.Len() {
		depth = c.rob.Len()
	}
	// The settled-prefix cursor: entries below replayBase are known to
	// be non-stores the scan would only continue over (non-loads, or
	// loads already replayedOK — a state that never reverts while the
	// entry is resident), so the scan resumes there instead of
	// rescanning the window head every cycle. Commit shifts it down,
	// squash clamps it.
	start := 0
	if !c.skipOff {
		start = c.replayBase
	}
	// The scan then sleeps until wake (replayDue): the next cycle after
	// any action or a port-limited stop, else the oldest pending
	// compare's completion, else (noDue) an event. Stopped at a store,
	// at a load still executing, or at the window's end, it would stop
	// in the same place every cycle until a completion, commit,
	// dispatch or squash, each of which clears replayWake.
	wake := noDue
	// Replay and compare are pipelined: one replay may *issue* per
	// cycle even while older replays' compares are pending, but
	// compares complete strictly in program order (olderPending) and a
	// replay miss delays every younger completion (lastReplayCycle).
	olderPending := false
	for i := start; i < depth; i++ {
		c.work.Replay++
		e := c.robAt(i)
		if e.isStore {
			// Constraint 1: all prior stores must have written the
			// cache before any younger load replays.
			break
		}
		if !e.isLoad || e.replayedOK {
			if !c.skipOff && i == c.replayBase {
				c.replayBase++ // extend the settled prefix
			}
			continue
		}
		if !e.done {
			// Premature execution still in flight; replay is in-order,
			// so nothing younger may replay either.
			break
		}
		if !e.replayDecided {
			wake = c.cycle + 1
			e.replayDecided = true
			e.needReplay = false
			if !c.faultNoReplay {
				var why trace.Reason
				e.needReplay, why = c.eng.Decide(e.load())
				if c.trace != nil {
					c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
						Kind: trace.KFilterDecision, Reason: why,
						Tag: e.tag, PC: e.pc, Addr: e.addr})
				}
			}
			if !e.needReplay {
				e.replayedOK = true
				c.commitQuiet = false
				c.eng.OnLoadPassedReplayStage(e.tag)
				if !c.skipOff && i == c.replayBase {
					c.replayBase++
				}
				continue
			}
		}
		if !e.replayIssued {
			if budget == 0 || c.portsUsed >= c.portCap() {
				// Constraint: replays share the commit-stage port(s)
				// with stores; stores have priority. The port and the
				// budget free up next cycle, unless there is no port.
				if c.cfg.ReplayPerCycle != 0 {
					wake = c.cycle + 1
				}
				break
			}
			wake = c.cycle + 1
			budget--
			c.portsUsed++
			res := c.hier.ReadReplay(e.addr, c.cycle)
			c.Stats.ReplayAccesses++
			e.replayIssued = true
			// The replayed value is sampled at replay issue: all prior
			// stores have committed, so this is the load's commit-time
			// (sequentially consistent) value.
			e.replayValue = c.mem.Read(e.addr)
			if c.Shadow != nil {
				// A replayed load's ordering point is its replay: the
				// replayed value, and its writer, are the committed ones
				// whether or not the compare matches. (With a match the
				// values agree, so the value-aware constraint graph
				// treats either attribution alike.)
				e.writer = c.Shadow.Read(e.addr)
			}
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KReplay, Tag: e.tag, PC: e.pc,
					Addr: e.addr, Value: e.replayValue})
			}
			// The compare completes within the compare stage; for an L1
			// hit the result is available with the access latency (the
			// two added pipe stages are latency the window hides, not
			// commit-throughput).
			done := c.cycle + int64(res.Latency)
			// Constraint 2: replays complete in program order; a miss
			// delays every subsequent replay.
			if done <= c.lastReplayCycle {
				done = c.lastReplayCycle + 1
			}
			e.replayCycle = done
			c.lastReplayCycle = done
			olderPending = true
			continue
		}
		if c.cycle < e.replayCycle || olderPending {
			// Compare pending (or an older one is): completions stay
			// in order, but younger replays may still issue.
			olderPending = true
			wake = min(wake, e.replayCycle)
			continue
		}
		wake = c.cycle + 1
		if c.vp != nil {
			c.vp.Train(e.pc, e.replayValue, e.valuePredicted)
		}
		if c.eng.OnReplayComplete(e.load(), e.replayValue) {
			// Value mismatch: the premature load resolved its
			// dependences incorrectly (or a value prediction was
			// wrong). The load keeps the correct (replayed) value;
			// everything younger squashes.
			if c.flt != nil {
				c.flt.OnReplayVerdict(c.ID, e.tag, true, c.cycle)
			}
			premature := e.value
			e.result = e.replayValue
			e.value = e.replayValue
			why := trace.RSquashReplayCons
			switch {
			case e.valuePredicted:
				c.Stats.SquashesVPred++
				why = trace.RSquashVPred
			case e.nus:
				c.trainSimple(e.pc)
				c.Stats.SquashesReplayRAW++
				why = trace.RSquashReplayRAW
			default:
				c.Stats.SquashesReplayCons++
			}
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KValueMismatch, Tag: e.tag, PC: e.pc,
					Addr: e.addr, Value: e.replayValue, Aux: premature})
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KSquash, Reason: why,
					Tag: e.tag, PC: e.pc, Addr: e.addr})
			}
			e.replayedOK = true
			if c.cfg.SquashIncludesLoad {
				// Ablation variant: refetch the load itself too; rule 3
				// marks it so it is not replayed again.
				if c.flt == nil || !c.flt.SuppressRule3(c.ID, c.cycle) {
					c.noReplayPC = e.pc
					c.noReplayArmed = true
				}
				c.squashFrom(e.tag, e.pc, false)
			} else {
				c.squashFrom(e.tag+1, e.pc+prog.InstBytes, false)
			}
			return // squashFrom woke the scan
		}
		if c.flt != nil {
			c.flt.OnReplayVerdict(c.ID, e.tag, false, c.cycle)
		}
		e.replayedOK = true
		c.commitQuiet = false
	}
	c.replayWake = wake
}

// ---------------------------------------------------------------------
// Issue.

type fuBudget struct {
	intALU, intMulDiv, fpALU, fpMulDiv, loadPorts, total int
}

// issue visits the ready and parked issue-queue entries oldest first
// under the cycle's per-class and width budgets (DESIGN.md §18). An
// entry whose issue operands are not ready cannot act, so this issues
// exactly what a tag-order scan of the whole queue would. A parked load
// is not probed again: while a load port is left, as the probe would
// have counted, it is charged the counts its blocked probe recorded. A
// store agen earlier in the scan may wake a younger parked load, which
// then gets its real probe when the scan reaches it. An issue-time
// squash (an insulated load-queue search) ends the cycle's issue.
//
//vbr:hotpath
func (c *Core) issue() {
	b := fuBudget{
		intALU:    c.cfg.IntALU,
		intMulDiv: c.cfg.IntMulDiv,
		fpALU:     c.cfg.FPALU,
		fpMulDiv:  c.cfg.FPMulDiv,
		loadPorts: c.cfg.LoadPorts,
		total:     c.cfg.Width,
	}
	ready := c.iqReady | c.iqParked
	for ready != 0 && b.total > 0 {
		if ready&c.iqReady == 0 {
			// Only parked loads are left. With nothing left to issue,
			// nothing can wake or kill one before the scan would reach
			// it, so they are charged at once.
			c.work.Issue += uint64(bits.OnesCount64(ready))
			c.chargeVisits(ready, &b)
			return
		}
		c.work.Issue++
		s := c.oldest(ready)
		bit := uint64(1) << s
		ready &^= bit
		if c.iqParked&bit != 0 {
			c.chargeVisits(bit, &b)
			continue
		}
		issued, squashed := c.tryIssue(c.pool.at(c.iq[s]), &b)
		if issued {
			b.total--
			c.iqRemove(s)
		}
		if squashed {
			return
		}
		// A castout of the load's own cache fill can squash without
		// ending the scan; the squash freed its victims' slots.
		ready &= c.iqReady | c.iqParked
	}
}

// oldest returns the slot of the oldest entry among the slots in m,
// which must be nonzero. Reading the tags straight from the mask needs
// no scratch array; m holds a handful of bits on most cycles.
//
//vbr:hotpath
func (c *Core) oldest(m uint64) int {
	best := bits.TrailingZeros64(m)
	tag := c.pool.at(c.iq[best]).tag
	for m &= m - 1; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if t := c.pool.at(c.iq[s]).tag; t < tag {
			best, tag = s, t
		}
	}
	return best
}

// issuesOnBoth reports whether class cls issues only once both source
// operands are ready: the ALU classes. Loads and stores issue on their
// address and branches resolve on operand 1.
//
//vbr:hotpath
func issuesOnBoth(cls isa.Class) bool {
	return cls != isa.ClassLoad && cls != isa.ClassStore && cls != isa.ClassBranch
}

// iqInsert puts a dispatched entry in the lowest free issue-queue slot
// and enters the slot in the wake mask of each unfinished producer of
// its issue operands. A producer read through both operands is waited
// on once. An entry with nothing to wait for is ready at once.
//
//vbr:hotpath
func (c *Core) iqInsert(e *entry) {
	s := bits.TrailingZeros64(^c.iqUsed)
	bit := uint64(1) << s
	c.iq[s] = e.self
	c.iqUsed |= bit
	e.slot = uint8(s)
	c.waitOn(e, e.src1, bit)
	if issuesOnBoth(e.cls) && e.src2 != e.src1 {
		c.waitOn(e, e.src2, bit)
	}
	if e.waiting == 0 {
		c.iqReady |= bit
	}
}

// waitOn makes e, in the slot bit, wait on producer h unless h (0 for
// an operand read at dispatch) has finished.
//
//vbr:hotpath
func (c *Core) waitOn(e *entry, h handle, bit uint64) {
	if h == 0 {
		return
	}
	if p := c.pool.at(h); !p.done && !p.resultReady {
		p.wakes |= bit
		e.waiting++
	}
}

// wake counts a finished producer off every queue entry waiting on it;
// an entry whose last awaited producer finished becomes ready. Only
// complete calls it: a value-predicted load is ready from its own
// dispatch, before any consumer can wait on it.
//
//vbr:hotpath
func (c *Core) wake(p *entry) {
	for m := p.wakes; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		w := c.pool.at(c.iq[s])
		w.waiting--
		if w.waiting == 0 {
			c.iqReady |= 1 << s
		}
	}
	p.wakes = 0
}

// iqRemove frees issue-queue slot s.
//
//vbr:hotpath
func (c *Core) iqRemove(s int) {
	c.iq[s] = 0
	c.iqUsed &^= 1 << s
	c.iqReady &^= 1 << s
}

// parkCounts records, one bit per parked slot, the counters a parked
// load's blocked probe bumped: a store-queue search, and the search's
// crossing into level two. Bits outside iqParked are clear.
type parkCounts struct {
	search, l2 uint64
}

// park moves load e's slot from iqReady to iqParked after a probe that
// found it blocked. search reports whether the probe searched the store
// queue, and l2 whether that search crossed into level two.
//
//vbr:hotpath
func (c *Core) park(e *entry, search, l2 bool) {
	bit := uint64(1) << e.slot
	c.iqReady &^= bit
	c.iqParked |= bit
	if search {
		c.parked.search |= bit
	}
	if l2 {
		c.parked.l2 |= bit
	}
}

// unpark returns the parked slots in m to iqReady: each is probed again
// when the issue scan next reaches it. Waking a load that is still
// blocked is exact, since that probe counts what the charge would have,
// and parks it again.
//
//vbr:hotpath
func (c *Core) unpark(m uint64) {
	c.iqParked &^= m
	c.iqReady |= m
	c.parked.drop(m)
}

// drop clears the slots in m.
func (p *parkCounts) drop(m uint64) {
	p.search &^= m
	p.l2 &^= m
}

// parkedAfter returns the parked slots whose load is younger than tag.
//
//vbr:hotpath
func (c *Core) parkedAfter(tag int64) uint64 {
	var m uint64
	for r := c.iqParked; r != 0; r &= r - 1 {
		s := bits.TrailingZeros64(r)
		if c.pool.at(c.iq[s]).tag > tag {
			m |= 1 << s
		}
	}
	return m
}

// chargeVisits charges the parked loads in m for the issue scan's
// visits, which probe only while a load port is left.
//
//vbr:hotpath
func (c *Core) chargeVisits(m uint64, b *fuBudget) {
	if b.loadPorts == 0 {
		return
	}
	c.chargeParked(m, 1)
	if !c.skipOff {
		c.Skip.ParkedProbes += uint64(bits.OnesCount64(m))
	}
}

// chargeParked counts n probes of each parked load in m, as n issue
// scans that reached them with a load port left would have: each adds
// the counts its blocked probe recorded. Counters are therefore exact at
// every cycle boundary, however long a load stays parked.
//
//vbr:hotpath
func (c *Core) chargeParked(m, n uint64) {
	if sm := c.parked.search & m; sm != 0 {
		c.sq.Charge(n*uint64(bits.OnesCount64(sm)), n*uint64(bits.OnesCount64(c.parked.l2&m)))
	}
}

// swapRemove drops s[i] by moving the last element into its place.
func swapRemove(s []handle, i int) []handle {
	last := len(s) - 1
	s[i] = s[last]
	return s[:last]
}

// pendPush enters an issued instruction into the pending-completion
// list, lowering the writeback stage's next-wake watermark to cover it.
//
//vbr:hotpath
func (c *Core) pendPush(e *entry) {
	if e.doneCycle < c.wbMinDue {
		c.wbMinDue = e.doneCycle
	}
	c.pend.push(e)
}

// tryIssue attempts to issue one instruction; it reports (issued,
// squashed). A squash can happen when an insulated/hybrid load-issue
// search finds a violation.
func (c *Core) tryIssue(e *entry, b *fuBudget) (bool, bool) {
	switch e.cls {
	case isa.ClassIntALU:
		return c.issueALU(e, &b.intALU, c.cfg.IntLat), false
	case isa.ClassIntMul:
		return c.issueALU(e, &b.intMulDiv, c.cfg.MulLat), false
	case isa.ClassIntDiv:
		return c.issueALU(e, &b.intMulDiv, c.cfg.DivLat), false
	case isa.ClassFPALU:
		return c.issueALU(e, &b.fpALU, c.cfg.FPLat), false
	case isa.ClassFPMul, isa.ClassFPDiv:
		return c.issueALU(e, &b.fpMulDiv, c.cfg.FPLat), false
	case isa.ClassBranch:
		return c.issueBranch(e, &b.intALU), false
	case isa.ClassStore:
		return c.issueStoreAgen(e, &b.intALU), false
	case isa.ClassLoad:
		return c.issueLoad(e, b)
	}
	return false, false
}

func (c *Core) issueALU(e *entry, units *int, lat int) bool {
	if *units == 0 {
		return false
	}
	s1, ok1 := c.pool.srcReady(e, 1)
	s2, ok2 := c.pool.srcReady(e, 2)
	if !ok1 || !ok2 {
		return false
	}
	*units--
	e.issued = true
	e.result = e.inst.Eval(s1, s2)
	e.doneCycle = c.cycle + int64(lat)
	c.pendPush(e)
	return true
}

func (c *Core) issueBranch(e *entry, units *int) bool {
	if *units == 0 {
		return false
	}
	s1, ok := c.pool.srcReady(e, 1)
	if !ok {
		return false
	}
	*units--
	e.src1Val = s1
	e.src1 = 0 // latch the value for resolution
	e.issued = true
	e.doneCycle = c.cycle + int64(c.cfg.IntLat)
	c.pendPush(e)
	return true
}

func (c *Core) issueStoreAgen(e *entry, units *int) bool {
	if *units == 0 {
		return false
	}
	s1, ok := c.pool.srcReady(e, 1)
	if !ok {
		return false
	}
	*units--
	e.addr = e.inst.EffAddr(s1)
	// Agen bypass: the resolved address is visible to store-queue
	// searches in the same cycle (loads stop seeing this store as
	// unresolved immediately); the load-queue violation search and the
	// agenDone ordering flag still take effect at writeback.
	c.sq.SetAddr(e.qh, e.addr)
	if c.iqParked != 0 {
		// A younger parked load may have waited on this address, or may
		// now forward from it.
		c.unpark(c.parkedAfter(e.tag))
	}
	e.issued = true
	e.doneCycle = c.cycle + int64(c.cfg.IntLat)
	c.pendPush(e)
	return true
}

func (c *Core) issueLoad(e *entry, b *fuBudget) (bool, bool) {
	if b.loadPorts == 0 {
		return false, false
	}
	s1, ok := c.pool.srcReady(e, 1)
	if !ok {
		return false, false
	}
	addr := e.inst.EffAddr(s1)
	// Dependence predictor constraints. A blocked load parks until an
	// event that can unblock it: its store's agen, an older agen, the
	// forwarding store's data capture.
	if e.waitStoreTag >= 0 {
		if c.sq.AwaitsAddr(e.waitStoreTag) {
			c.park(e, false, false) // store-set: wait for the store's agen
			return false, false
		}
		e.waitStoreTag = -1
	}
	if c.ssets == nil && c.simple.Predicts(e.pc) && c.sq.UnresolvedBefore(e.tag) {
		c.park(e, false, false) // simple predictor: wait for all prior agens
		return false, false
	}
	r := c.sq.Search(addr, e.tag)
	if r.Match && !r.DataReady {
		c.park(e, true, r.Level2) // forwarding store's data not ready yet
		return false, false
	}
	b.loadPorts--
	e.addr = addr
	e.addrValid = true
	e.issued = true
	e.forwardTag = -1
	e.nus = r.UnresolvedOlder
	if e.nus && c.flt != nil && c.flt.SuppressNUS(c.ID, c.cycle) {
		e.nus = false // injected fault: blind the RAW filter input
	}
	if e.nus {
		c.Stats.LoadsNUSFlagged++
	}
	e.reordered = c.priorMemIncomplete(e)
	if e.reordered {
		c.Stats.LoadsReordered++
	}
	var lat int
	if r.Match {
		// Store-to-load forwarding: value from the store queue. A
		// hierarchical store queue's level-two matches forward slower.
		if !e.valuePredicted {
			e.value = r.Data
		}
		e.forwardTag = r.MatchTag
		if c.Shadow != nil {
			// The forwarding store is older, so it commits first, and
			// its handle is its commit ordinal.
			e.writer = consistency.MakeWriter(c.ID, uint64(r.MatchHandle))
		}
		lat = c.cfg.Hier.L1D.Latency
		if r.Latency > lat {
			lat = r.Latency
		}
		c.Stats.ForwardedLoads++
	} else {
		res := c.hier.Read(e.pc, addr, c.cycle)
		c.Stats.DemandLoadAccesses++
		if !e.valuePredicted {
			// A value-predicted load's "premature value" IS the
			// prediction; the cache access warms the block the replay
			// will verify against.
			e.value = c.mem.Read(addr)
			if c.Shadow != nil {
				e.writer = c.Shadow.Read(addr)
			}
		}
		lat = res.Latency
	}
	if c.flt != nil && !e.valuePredicted {
		// A predicted value is not a datapath sample, so it is exempt;
		// forwarded values are LoadValue-eligible only, demand reads may
		// also take a CacheData array fault.
		if v, ok := c.flt.CorruptLoadValue(c.ID, e.tag, e.pc, addr, e.value, !r.Match, c.cycle); ok {
			e.value = v
		}
	}
	e.result = e.value
	e.doneCycle = c.cycle + int64(lat)
	c.pendPush(e)
	if c.trace != nil {
		var flags uint64
		if r.Match {
			flags |= trace.FlagForwarded
		}
		if e.nus {
			flags |= trace.FlagNUS
		}
		if e.reordered {
			flags |= trace.FlagReordered
		}
		if e.valuePredicted {
			flags |= trace.FlagVPred
		}
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KLoadIssue, Tag: e.tag, PC: e.pc,
			Addr: e.addr, Value: e.value, Aux: flags})
	}

	if c.eng != nil {
		return true, false
	}
	if sqz, found := c.alq.OnIssue(e.qh, e.addr, e.forwardTag); found {
		// Insulated/hybrid load-issue search found a younger issued
		// load to the same address (Figure 1(c)).
		c.Stats.SquashesLoadIssue++
		if c.trace != nil {
			c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
				Kind: trace.KSquash, Reason: trace.RSquashLoadIssue,
				Tag: sqz.Tag, PC: sqz.PC, Addr: e.addr})
		}
		c.squashFrom(sqz.Tag, sqz.PC, false)
		return true, true
	}
	return true, false
}

// unlink copies a committing producer's result into any consumer that
// still names it, so the producer's storage can be recycled safely.
// Only unissued instructions name producers: everything in the issue
// queue, plus stores awaiting data capture.
func (c *Core) unlink(p *entry) {
	fix := func(h handle) {
		e := c.pool.at(h)
		if e.src1 == p.self {
			e.src1 = 0
			e.src1Val = p.result
			p.consumers--
		}
		if e.src2 == p.self {
			e.src2 = 0
			e.src2Val = p.result
			p.consumers--
		}
	}
	for m := c.iqUsed; m != 0; m &= m - 1 {
		fix(c.iq[bits.TrailingZeros64(m)])
	}
	for _, h := range c.psd {
		fix(h)
	}
}

// priorMemIncomplete reports whether any older memory operation is
// still incomplete (prior load not done, or prior store address
// unresolved) — the no-reorder filter's issue-time condition. A store
// is incomplete until it commits (writes the cache), and the store
// queue holds exactly the dispatched-uncommitted stores, so its oldest
// tag answers the store half in O(1); the load queue's cursor at the
// oldest incomplete load answers the load half with one comparison.
// Both are exact replacements for the former O(ROB) entry walk, not
// approximations.
//
//vbr:hotpath
func (c *Core) priorMemIncomplete(e *entry) bool {
	return c.sq.HasOlderThan(e.tag) || c.lq.hasBefore(e.tag)
}

// ---------------------------------------------------------------------
// Dispatch.

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.fetchQ.Len() == 0 || c.fetchQ.Front().readyCycle > c.cycle {
			return
		}
		f := c.fetchQ.Front()
		if k := c.dispatchStall(f); k != stallNone {
			c.countStall(k, 1)
			return
		}
		c.fetchQ.DropFront()
		c.dispatchOne(f) // f stays valid: the slot is not reused until a push
	}
}

// dispatchStall returns the stall that keeps f, the fetch buffer's
// ready front, from dispatching this cycle, or stallNone when it would
// dispatch. Dispatch and Quiescent both ask it.
func (c *Core) dispatchStall(f *fetched) stallKind {
	switch {
	case c.dispatchBarrier >= 0:
		return stallBarrier
	case c.rob.Len() >= c.cfg.ROBSize:
		return stallROB
	case f.cls != isa.ClassNop && f.cls != isa.ClassMembar && c.IQLen() >= c.cfg.IQSize:
		return stallIQ
	case f.cls == isa.ClassLoad && c.lq.fifo.Full():
		return stallLQ
	case f.cls == isa.ClassStore && c.sq.Full():
		return stallSQ
	}
	return stallNone
}

// countStall adds n cycles to stall k's counter: one from dispatch, a
// whole window from FastForward.
func (c *Core) countStall(k stallKind, n uint64) {
	switch k {
	case stallBarrier:
		c.Stats.StallBarrier += n
	case stallROB:
		c.Stats.StallROB += n
	case stallIQ:
		c.Stats.StallIQ += n
	case stallLQ:
		c.Stats.StallLQ += n
	case stallSQ:
		c.Stats.StallSQ += n
	}
}

func (c *Core) dispatchOne(f *fetched) {
	e := c.pool.get()
	e.tag = c.nextTag
	c.nextTag++
	e.pc = f.pc
	e.inst = f.inst
	e.cls = f.cls
	e.predTaken = f.predTaken
	e.meta = f.meta
	e.histSnapshot = f.hist
	e.waitStoreTag = -1
	e.forwardTag = -1
	e.doneCycle = -1

	// Rename: bind sources to producers or architectural values. Each
	// bind counts on the producer so commit's unlink can skip its scan
	// once every reference has latched (entry.consumers).
	if f.inst.ReadsReg(1) {
		r := f.inst.Src1
		e.reads1 = true
		if h := c.renameMap[r]; h != 0 && r != isa.RZero {
			p := c.pool.at(h)
			e.src1 = h
			e.src1Gen = p.gen
			p.consumers++
		} else {
			e.src1Val = c.arch.ReadReg(r)
		}
	}
	if f.inst.ReadsReg(2) {
		r := f.inst.Src2
		e.reads2 = true
		if h := c.renameMap[r]; h != 0 && r != isa.RZero {
			p := c.pool.at(h)
			e.src2 = h
			e.src2Gen = p.gen
			p.consumers++
		} else {
			e.src2Val = c.arch.ReadReg(r)
		}
	}
	e.writesReg = f.inst.WritesReg()
	if e.writesReg {
		c.renameMap[f.inst.Dst] = e.self
	}

	switch f.cls {
	case isa.ClassNop:
		e.done = true
		e.doneCycle = c.cycle
	case isa.ClassMembar:
		e.done = true
		e.doneCycle = c.cycle
		c.dispatchBarrier = e.tag
	case isa.ClassBranch:
		e.isBranch = true
		c.iqInsert(e)
	case isa.ClassLoad:
		e.isLoad = true
		c.iqInsert(e)
		e.qh = c.lq.push(e.tag) // dispatch checked that it is not full
		if c.vp != nil && !(c.noReplayArmed && e.pc == c.noReplayPC) {
			if v, ok := c.vp.Predict(e.pc); ok {
				// Consumers may use the predicted value immediately;
				// the replay/compare stages verify it before commit.
				e.valuePredicted = true
				e.result = v
				e.value = v
				e.resultReady = true
				c.Stats.ValuePredictedLoads++
			}
		}
		if c.eng != nil {
			if c.noReplayArmed && e.pc == c.noReplayPC {
				// Forward-progress rule 3: the refetched instance of a
				// load that caused a replay squash is not replayed.
				e.noReplay = true
				c.noReplayArmed = false
			}
		} else {
			c.alq.Insert(e.qh, e.pc)
			if c.ssets != nil {
				e.waitStoreTag = c.ssets.LoadDispatched(e.pc)
			}
		}
	case isa.ClassStore:
		e.isStore = true
		c.iqInsert(e)
		e.qh = c.sq.Insert(e.tag)
		if c.iqParked != 0 && c.sq.TwoLevel() {
			// A deeper queue moves older stores toward level two, which
			// changes what a parked load's search counts.
			c.unpark(c.iqParked)
		}
		c.psd = append(c.psd, e.self)
		c.psdQuiet = false
		if c.ssets != nil {
			c.ssets.StoreDispatched(e.pc, e.tag)
		}
	default:
		c.iqInsert(e)
	}
	c.rob.Push(e.self)
	c.replayWake = 0 // the replay window may have grown
	// Dispatch into an empty ROB wakes commit: the new head may already
	// be done.
	if c.rob.Len() == 1 {
		c.commitQuiet = false
	}
}

// ---------------------------------------------------------------------
// Fetch.

func (c *Core) fetch() {
	if !c.fetchDue() {
		return
	}
	// One instruction-cache access per fetch cycle.
	ifres := c.hier.InstrFetch(c.fetchPC)
	if ifres.Latency > c.cfg.Hier.L1I.Latency {
		c.fetchStallUntil = c.cycle + int64(ifres.Latency)
		return
	}
	ready := c.cycle + int64(c.cfg.FrontEndDepth)
	for n := 0; n < c.cfg.Width && c.fetchQ.Len() < c.cfg.FetchBuf; n++ {
		in, ok := c.prog.Fetch(c.fetchPC)
		if !ok {
			in = isa.Inst{Op: isa.OpNop} // wrong-path filler
		}
		cls := in.Class()
		f := c.fetchQ.PushSlot()
		f.pc = c.fetchPC
		f.inst = in
		f.cls = cls
		f.readyCycle = ready
		f.hist = c.bp.History()
		if cls == isa.ClassBranch {
			f.predTaken, f.meta = c.bp.PredictInst(in, c.fetchPC)
		}
		if cls == isa.ClassBranch && f.predTaken {
			target := c.prog.Target(in, c.fetchPC)
			if !c.bp.BTBLookup(c.fetchPC) {
				// BTB miss on a predicted-taken branch: one bubble while
				// decode computes the target.
				c.fetchStallUntil = c.cycle + 2
			}
			c.fetchPC = target
			return // fetch stops at the first taken branch (Table 3)
		}
		c.fetchPC += prog.InstBytes
	}
}

// ---------------------------------------------------------------------
// Squash.

// squashFrom kills every instruction with tag >= fromTag, redirects
// fetch to newPC, and repairs rename/predictor state. When
// branchRepair is true the branch's own Update already fixed global
// history; otherwise history is restored from the oldest killed
// instruction's snapshot.
func (c *Core) squashFrom(fromTag int64, newPC uint64, branchRepair bool) {
	if c.flt != nil {
		// Pending injections on killed loads leave the machine with them.
		c.flt.OnSquash(c.ID, fromTag, c.cycle)
	}
	// Find the cut point: ROB tags increase from the head.
	robLen := c.rob.Len()
	cut := sort.Search(robLen, func(i int) bool { return c.robAt(i).tag >= fromTag })
	if !branchRepair {
		if cut < robLen {
			c.bp.SetHistory(c.robAt(cut).histSnapshot)
		} else if c.fetchQ.Len() > 0 {
			// Nothing in the ROB was killed, but the fetch buffer holds
			// speculative predictions that polluted global history.
			c.bp.SetHistory(c.fetchQ.Front().hist)
		}
	}
	c.Stats.SquashedInstrs += uint64(robLen-cut) + uint64(c.fetchQ.Len())
	// Recycle the killed entries (oldest first, matching the old append
	// order) before the ring drops them. Each killed consumer still
	// naming a producer releases its reference count, and killed
	// issue-queue entries free their slots.
	var killed uint64
	for i := cut; i < robLen; i++ {
		e := c.robAt(i)
		if c.iq[e.slot] == e.self {
			killed |= 1 << e.slot
			c.iq[e.slot] = 0
		}
		if e.src1 != 0 {
			c.pool.at(e.src1).consumers--
		}
		if e.src2 != 0 {
			c.pool.at(e.src2).consumers--
		}
		c.pool.put(e)
	}
	c.rob.TruncateFrom(cut)
	c.iqUsed &^= killed
	c.iqReady &^= killed
	if c.iqParked != 0 {
		c.iqParked &^= killed
		c.parked.drop(killed)
	}
	// Wake every sleeping stage: occupancies and readiness changed. The
	// settled-prefix replay cursor clamps to the surviving prefix.
	c.psdQuiet = false
	c.commitQuiet = false
	c.replayWake = 0
	if c.replayBase > cut {
		c.replayBase = cut
	}

	// Rebuild the rename map from survivors, and drop the freed slots
	// from their wake masks.
	c.renameMap = [isa.NumRegs]handle{}
	for i := 0; i < cut; i++ {
		e := c.robAt(i)
		e.wakes &^= killed
		if e.writesReg {
			c.renameMap[e.inst.Dst] = e.self
		}
	}

	// Filter the side lists.
	c.pend.filterOlder(fromTag, &c.pool)
	c.psd = filterOlder(c.psd, fromTag, &c.pool)

	lqFrom, lqTo := c.lq.squash(fromTag)
	c.sq.Squash(fromTag)
	if c.iqParked != 0 && c.sq.TwoLevel() {
		// The squash changed the queue's depth, which places the
		// level-one boundary.
		c.unpark(c.iqParked)
	}
	if c.alq != nil {
		c.alq.Squash(lqFrom, lqTo)
	}
	if c.eng != nil {
		c.eng.OnSquash(fromTag)
	}
	if c.ssets != nil {
		c.ssets.SquashTag(fromTag)
	}
	if c.dispatchBarrier >= fromTag {
		c.dispatchBarrier = -1
	}

	c.fetchQ.Clear()
	c.fetchPC = newPC
	// Redirect takes effect next cycle.
	if c.fetchStallUntil <= c.cycle {
		c.fetchStallUntil = c.cycle + 1
	}
}

func filterOlder(s []handle, fromTag int64, pl *pool) []handle {
	out := s[:0]
	for _, h := range s {
		if pl.at(h).tag < fromTag {
			out = append(out, h)
		}
	}
	return out
}

// robAt returns the i-th oldest ROB entry (0 = next to commit).
//
//vbr:hotpath
func (c *Core) robAt(i int) *entry { return c.pool.at(c.rob.At(i)) }

// ---------------------------------------------------------------------
// External events (wired by the system package).

// HandleExternalInvalidation processes an invalidation (or castout)
// observed by this core: baseline snooping/hybrid load queues search and
// possibly squash; the no-recent-snoop filter opens its replay window.
func (c *Core) HandleExternalInvalidation(block uint64) {
	if c.trace != nil {
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KSnoopInval, Addr: block})
	}
	if c.alq != nil {
		commitTag := int64(-1)
		if c.rob.Len() > 0 {
			commitTag = c.robAt(0).tag
		}
		sqz, found := c.alq.OnInvalidation(block, commitTag)
		if found {
			c.Stats.SquashesInval++
			if c.trace != nil {
				c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
					Kind: trace.KSquash, Reason: trace.RSquashInval,
					Tag: sqz.Tag, PC: sqz.PC, Addr: block})
			}
			c.squashFrom(sqz.Tag, sqz.PC, false)
		}
		return
	}
	if c.eng.Filter.NeedsSnoopEvents() {
		if c.flt != nil && c.flt.SuppressWindow(c.ID, c.cycle) {
			return // injected fault: the NRS window never opens
		}
		c.eng.NoteExternalEvent(c.lq.fifo.YoungestTag())
	}
}

// HandleExternalFill feeds the no-recent-miss filter: a block entered
// the local hierarchy from an external source.
func (c *Core) HandleExternalFill(block uint64) {
	if c.trace != nil {
		c.trace.Emit(trace.Event{Cycle: c.cycle, Core: int32(c.ID),
			Kind: trace.KExtFill, Addr: block})
	}
	if c.eng != nil && c.eng.Filter.NeedsMissEvents() {
		if c.flt != nil && c.flt.SuppressWindow(c.ID, c.cycle) {
			return // injected fault: the NRM window never opens
		}
		c.eng.NoteExternalEvent(c.lq.fifo.YoungestTag())
	}
}

// portCap returns the commit-stage cache port count (1 in the paper).
func (c *Core) portCap() int {
	if c.cfg.ReplayPerCycle > 1 {
		return c.cfg.ReplayPerCycle
	}
	return 1
}

// ResetStats zeroes every statistics counter on the core and its
// attached structures (used after cache warmup so measurements reflect
// steady state) and empties the committed-operation stream.
// Architectural and microarchitectural state persist.
func (c *Core) ResetStats() {
	c.Stats = Stats{}
	c.Skip = SkipStats{}
	c.work = WorkStats{}
	c.hier.ResetStats()
	c.bp.Stats = bpred.Stats{}
	if c.eng != nil {
		c.eng.Stats = core.Stats{}
	}
	if c.alq != nil {
		c.alq.Stats = lsq.LQStats{}
	}
	c.sq.Stats = lsq.SQStats{}
	if c.vp != nil {
		c.vp.Stats = vpred.Stats{}
	}
	c.ops = c.ops[:0]
}

// ArchState returns a copy of the committed architectural state.
func (c *Core) ArchState() prog.ArchState { return c.arch }
