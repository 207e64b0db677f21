// The sweep runner: execute every battery test across machine
// configurations × seeds × timing perturbations (including a
// stage-skip on/off fold) in a bounded worker pool, collecting outcome
// histograms and soundness verdicts. The five
// sound configurations (baseline snooping LQ, replay-all, no-reorder,
// NRM+NUS, NRS+NUS) must observe only SC-allowed outcomes; the
// deliberately mis-composed NUS-alone filter (paper §3.3 — it assumes
// loads to the same address issue in order, which only the uniprocessor
// guarantees) must be caught by at least one test.

package litmus

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vbmo/internal/cache"
	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/core"
	"vbmo/internal/fault"
	"vbmo/internal/par"
	"vbmo/internal/system"
	"vbmo/internal/trace"
)

// Config is one sweep column: a named machine configuration plus the
// soundness expectation litmus holds it to.
type Config struct {
	// Name is the sweep's short column name ("nrm+nus", "nus-only", ...).
	Name string
	// Machine is the tuned machine configuration.
	Machine config.Machine
	// Sound is true when the configuration must admit only SC-allowed
	// outcomes. The one unsound member (NUS alone) is expected to be
	// caught instead.
	Sound bool
}

// Configs returns the standard sweep columns. Machines are tuned for
// litmus scale: the battery touches a handful of cache blocks, so the
// Table 3 hierarchy (8 MB of L3 per core) would spend the entire sweep
// allocating arrays. Shrinking the caches changes capacity, not
// coherence or ordering behaviour, which is all litmus observes.
func Configs() []Config {
	return []Config{
		{Name: "baseline", Machine: tune(config.Baseline()), Sound: true},
		{Name: "replay-all", Machine: tune(config.Replay(core.ReplayAll)), Sound: true},
		{Name: "no-reorder", Machine: tune(config.Replay(core.NoReorder)), Sound: true},
		{Name: "nrm+nus", Machine: tune(config.Replay(core.NoRecentMiss)), Sound: true},
		{Name: "nrs+nus", Machine: tune(config.Replay(core.NoRecentSnoop)), Sound: true},
		{Name: "nus-only", Machine: tune(config.Replay(core.NUSOnly)), Sound: false},
	}
}

// ConfigByName returns the sweep column with the given name.
func ConfigByName(name string) (Config, bool) {
	for _, c := range Configs() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// tune shrinks a machine's memory system to litmus scale.
func tune(m config.Machine) config.Machine {
	m.Hier.L1I = cache.Config{Size: 4 << 10, Ways: 1, Latency: 1}
	m.Hier.L1D = cache.Config{Size: 4 << 10, Ways: 1, Latency: 1}
	m.Hier.L2 = cache.Config{Size: 16 << 10, Ways: 4, Latency: 3}
	m.Hier.L3 = cache.Config{Size: 64 << 10, Ways: 8, Latency: 8}
	m.Hier.PrefetchEntries = 32
	m.Hier.TLBEntries = 32
	m.Hier.TLBWays = 4
	m.Hier.TLBWalkLatency = 10
	m.BP.BimodalEntries = 512
	m.BP.GshareEntries = 512
	m.BP.SelectorEntries = 512
	m.BP.BTBEntries = 256
	m.BP.BTBWays = 4
	m.MemLatency = 120
	return m
}

// Perturb is one run's timing perturbation, derived from the seed: a
// per-thread skew prologue (staggers entry into the test body), a
// per-core cache-prewarm bit (warmed cores hit locally and issue loads
// earlier; cold cores miss to memory), an invalidation-probe period
// (coherence contention injection via Bus.Probe), and a DMA period
// (background snoop noise).
type Perturb struct {
	Skew        []int
	Warm        []bool
	ProbeEvery  int64
	DMAInterval int64
	// NoStageSkip folds the per-stage readiness layer (DESIGN.md §14)
	// into the sweep: roughly half the perturbed runs execute with the
	// layer disabled. Because the layer is bit-identical by contract,
	// this fold can never change a verdict — it exists so the sweep
	// itself continuously re-proves that contract on every battery
	// member under every perturbation shape.
	NoStageSkip bool
}

// rng is a splitmix64 stream, the same generator the workloads use;
// litmus keeps its own copy so perturbation derivation is independent
// of the machine's seeded internals.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perturbFor derives the perturbation for one run. Seed 0 is the
// canonical unperturbed run: no skew, all cores cold, no noise.
func perturbFor(r *rng, threads int) Perturb {
	p := Perturb{Skew: make([]int, threads), Warm: make([]bool, threads)}
	for i := range p.Skew {
		p.Skew[i] = r.intn(24)
		p.Warm[i] = r.next()&1 == 0
	}
	if r.next()&1 == 0 {
		p.ProbeEvery = int64(29 + r.intn(200))
	}
	if r.next()&3 == 0 {
		p.DMAInterval = int64(200 + r.intn(400))
	}
	// Drawn last so the fold's addition left every earlier field's
	// derivation (and thus the historical sweep outcomes) unchanged.
	p.NoStageSkip = r.next()&1 == 0
	return p
}

// maxCycles bounds a single litmus run. The longest battery member
// commits ~15 instructions per core; even fully fenced, cold and
// contended that takes well under a thousand cycles, so hitting this
// bound means livelock, which the verdict reports as Incomplete runs.
const maxCycles = 60000

// RunResult is one classified litmus execution.
type RunResult struct {
	Outcome Outcome
	Key     string
	// OK is false when some test load never committed (cycle bound hit).
	OK bool
	// Allowed is true when the outcome is in the SC oracle's set.
	Allowed bool
	// Weak is true when the test's canonical weak predicate matched.
	Weak bool
	// Cycle is true when the constraint graph built from the run's
	// committed streams contains a cycle (the checker's independent
	// verdict on the same execution).
	Cycle bool
	// Faults is the injector's accounting when the run was fault-injected
	// (zero otherwise).
	Faults fault.Stats
}

// RunOne executes one litmus test once on one machine with the
// perturbation derived from seed, classifies the outcome against the
// oracle, and cross-checks the run with the constraint-graph checker.
func RunOne(mc config.Machine, t *Test, as *AllowedSet, seed uint64, tr *trace.Tracer) RunResult {
	return RunOneFault(mc, t, as, seed, tr, nil)
}

// RunOneFault is RunOne under fault injection: fc (when enabled) is
// instantiated with a per-run derived seed so every run of a sweep cell
// draws an independent, reproducible fault stream. A nil fc is exactly
// RunOne.
func RunOneFault(mc config.Machine, t *Test, as *AllowedSet, seed uint64, tr *trace.Tracer, fc *fault.Config) RunResult {
	return RunOneFaultOn(mc, t, as, seed, tr, fc, 0)
}

// RunOneFaultOn is RunOneFault on a machine of the given core count:
// cores beyond the test's threads run spin-only sections (CompileOn),
// so the test executes inside a wider SMP with the extra cores
// contributing bus traffic. cores at or below the thread count
// (including 0) is exactly RunOneFault.
func RunOneFaultOn(mc config.Machine, t *Test, as *AllowedSet, seed uint64, tr *trace.Tracer, fc *fault.Config, cores int) RunResult {
	res, _ := runOn(nil, mc, t, as, seed, tr, fc, cores)
	return res
}

// runOn is RunOneFaultOn on a given machine: s, when non-nil, is reset
// in place (system.Reset) instead of building a fresh machine, and must
// have been built for mc at the same core count. It returns the machine
// it ran on, for the next run to reuse.
func runOn(s *system.System, mc config.Machine, t *Test, as *AllowedSet, seed uint64, tr *trace.Tracer, fc *fault.Config, cores int) (RunResult, *system.System) {
	r := &rng{s: seed * 0x2545f4914f6cdd1d}
	var p Perturb
	if seed == 0 {
		p = Perturb{Skew: make([]int, len(t.Threads)), Warm: make([]bool, len(t.Threads))}
	} else {
		p = perturbFor(r, len(t.Threads))
	}
	comp := CompileOn(t, p.Skew, cores)

	opt := system.Options{
		Cores:            len(comp.Inits),
		Seed:             seed,
		TrackConsistency: true,
		RecordCommits:    true, // Extract reads load values by PC
		MaxCycles:        maxCycles,
		DMAInterval:      p.DMAInterval,
		DMABurst:         2,
		NoStageSkip:      p.NoStageSkip,
		Trace:            tr,
	}
	if fc.Enabled() {
		// Derive a per-run fault seed so runs stay independent but any
		// single (seed, fault seed) pair replays exactly.
		derived := *fc
		derived.Seed = fc.Seed ^ (seed * 0x2545f4914f6cdd1d)
		opt.Fault = &derived
	}
	// The probe hook needs the system, which needs the options: close
	// over a slot filled in once the machine is built.
	var sys *system.System
	if p.ProbeEvery > 0 {
		k := 0
		opt.OnCycle = func(cycle int64) {
			if cycle%p.ProbeEvery == 0 && sys != nil {
				sys.Bus.Probe(comp.Addrs[k%len(comp.Addrs)])
				k++
			}
		}
	}
	if s == nil {
		s = system.NewCustom(mc, comp.Prog, comp.Inits, opt)
	} else {
		s.Reset(comp.Prog, comp.Inits, opt)
	}
	sys = s
	comp.InitImage(s)
	for c := range comp.Inits {
		if c < len(p.Warm) && p.Warm[c] {
			for _, addr := range comp.Addrs {
				s.Prewarm(c, addr)
			}
		}
	}
	// Advance, not Run: the outcome is read from the machine, so Run's
	// Result summary would be built only to be discarded.
	s.Advance(comp.MinCommits, opt)

	out, ok := comp.Extract(s)
	res := RunResult{
		Outcome: out,
		Key:     out.Key(),
		OK:      ok,
		Allowed: as.Contains(out),
		Weak:    t.Weak != nil && t.Weak(out),
	}
	if s.Faults != nil {
		res.Faults = s.Faults.Stats
	}
	if ok {
		_, res.Cycle = runGraph(s, as, comp.Addrs, nil).FindCycle()
	}
	if tr != nil {
		for i, v := range out.Loads {
			tr.Emit(trace.Event{
				Cycle: s.CycleNum, Core: -1, Kind: trace.KLitmusOutcome,
				Tag: int64(i), Value: v, Aux: seed,
			})
		}
		forb := uint64(0)
		if ok && !res.Allowed {
			forb = 1
		}
		tr.Emit(trace.Event{
			Cycle: s.CycleNum, Core: -1, Kind: trace.KLitmusOutcome,
			Tag: -1, Value: forb, Aux: seed,
		})
	}
	return res, s
}

// runGraph builds the constraint graph of the run s just finished with
// the litmus background: the test pre-initializes its locations, addrs,
// so the image's hashed background is wrong exactly there. onEdge is
// consistency.BuildWith's edge observer.
func runGraph(s *system.System, as *AllowedSet, addrs []uint64, onEdge func(from, to int32, kind consistency.EdgeKind)) *consistency.Graph {
	procs, log := s.Ops()
	bg := as.background()
	img := s.Image
	return consistency.BuildWith(procs, log, func(addr uint64) uint64 {
		for _, a := range addrs {
			if addr&^7 == a {
				return bg(addr)
			}
		}
		return img.Background(addr)
	}, onEdge)
}

// Verdict aggregates one (test, config) cell of the sweep.
type Verdict struct {
	Test   string `json:"test"`
	Config string `json:"config"`
	Sound  bool   `json:"sound"`
	Runs   int    `json:"runs"`
	// Histogram counts committed outcomes by canonical key.
	Histogram map[string]int `json:"histogram"`
	// Forbidden counts runs whose outcome the SC oracle rejects.
	Forbidden int `json:"forbidden"`
	// WeakHits counts runs matching the test's canonical weak predicate
	// (a subset of Forbidden for well-formed tests).
	WeakHits int `json:"weak_hits"`
	// Cycles counts runs whose constraint graph was cyclic.
	Cycles int `json:"cycles"`
	// Incomplete counts runs that hit the cycle bound before every test
	// load committed (excluded from the histogram and classification).
	Incomplete int `json:"incomplete"`
	// Fault accounting, summed over the cell's runs (zero without -fault):
	// value corruptions injected/caught/escaped, messages dropped or
	// delayed, filter signals suppressed.
	FaultInjected   uint64 `json:"fault_injected,omitempty"`
	FaultDetected   uint64 `json:"fault_detected,omitempty"`
	FaultMissed     uint64 `json:"fault_missed,omitempty"`
	FaultDropped    uint64 `json:"fault_dropped,omitempty"`
	FaultDelayed    uint64 `json:"fault_delayed,omitempty"`
	FaultSuppressed uint64 `json:"fault_suppressed,omitempty"`
	// Error is non-empty when the cell itself failed to run (worker
	// panic past its retries, or wall-clock timeout): an infrastructure
	// failure, distinct from a soundness verdict.
	Error string `json:"error,omitempty"`
}

// Pass reports the cell's verdict: a sound configuration passes when
// no completed run produced a forbidden outcome or a graph cycle; the
// unsound configuration's cell always "passes" individually — whether
// it was caught is a battery-level question (see Caught).
func (v Verdict) Pass() bool {
	if !v.Sound {
		return true
	}
	return v.Forbidden == 0 && v.Cycles == 0 && v.Incomplete == 0
}

// Caught reports whether this cell caught an unsound configuration:
// some run produced an SC-forbidden outcome or a constraint-graph
// cycle.
func (v Verdict) Caught() bool { return v.Forbidden > 0 || v.Cycles > 0 }

// Keys returns the histogram keys, most frequent first (ties by key).
func (v Verdict) Keys() []string {
	keys := make([]string, 0, len(v.Histogram))
	for k := range v.Histogram {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if v.Histogram[keys[i]] != v.Histogram[keys[j]] {
			return v.Histogram[keys[i]] > v.Histogram[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// SweepOptions configures a sweep.
type SweepOptions struct {
	// Tests is the battery subset to run (nil = full Battery).
	Tests []*Test
	// Configs is the machine set (nil = standard Configs).
	Configs []Config
	// Runs is the perturbed executions per (test, config) cell.
	Runs int
	// Workers bounds the worker pool (<=0 = one per runtime.GOMAXPROCS;
	// see par.Workers).
	Workers int
	// Seed offsets every run's perturbation stream.
	Seed uint64
	// Progress, when non-nil, is called after each finished cell.
	Progress func(done, total int, v Verdict)
	// Cores, when positive, runs every test on a machine of this many
	// cores, padding cores beyond a test's threads with spin-only
	// sections (see CompileOn). Zero keeps each test at its natural
	// thread count.
	Cores int
	// Fault, when enabled, injects faults into every run (per-run
	// derived seeds; see RunOneFault).
	Fault *fault.Config
	// Checkpoint, when non-empty, journals completed cells to this JSONL
	// file; re-running with the same path resumes, replaying journaled
	// cells bit-identically instead of re-simulating them.
	Checkpoint string
	// Retries re-attempts a panicked cell this many times.
	Retries int
	// CellTimeout, when positive, abandons a cell at this wall-clock
	// deadline (its verdict carries Error). Nondeterministic; leave 0
	// for reproducible sweeps.
	CellTimeout time.Duration
}

// CellSeed derives the perturbation base seed of the (ti, ci) sweep
// cell from the sweep seed. The derivation decorrelates the streams
// across cells while keeping run i of a cell reproducible in
// isolation; it is shared with the farm service so a farm-executed
// cell is bit-identical to the same cell inside a CLI sweep.
func CellSeed(seed uint64, ti, ci int) uint64 {
	return seed ^ (uint64(ti)<<40 | uint64(ci)<<32)
}

// RunCell executes one (test, config) sweep cell: runs perturbed
// executions seeded from base (see CellSeed), classified against the
// test's allowed set, folded into the cell's verdict. This is the
// farm service's unit of execution as well as Sweep's worker body, so
// the two produce identical verdicts for identical inputs.
//
// The cell builds one machine and resets it in place before each later
// run (system.Reset), which is indistinguishable from a fresh build.
// The machine is local to this call: a cell that panics or times out
// takes it along, and a retry starts from a new one (DESIGN.md §17).
func RunCell(t *Test, cfg Config, as *AllowedSet, runs int, base uint64, fc *fault.Config, cores int) Verdict {
	v := Verdict{
		Test: t.Name, Config: cfg.Name, Sound: cfg.Sound,
		Runs: runs, Histogram: make(map[string]int),
	}
	var s *system.System
	for i := 0; i < runs; i++ {
		var res RunResult
		res, s = runOn(s, cfg.Machine, t, as, base+uint64(i), nil, fc, cores)
		if res.OK {
			v.Histogram[res.Key]++
			if !res.Allowed {
				v.Forbidden++
			}
			if res.Weak {
				v.WeakHits++
			}
			if res.Cycle {
				v.Cycles++
			}
		} else {
			v.Incomplete++
		}
		v.FaultInjected += res.Faults.Injected
		v.FaultDetected += res.Faults.Detected
		v.FaultMissed += res.Faults.Missed
		v.FaultDropped += res.Faults.Dropped
		v.FaultDelayed += res.Faults.Delayed
		v.FaultSuppressed += res.Faults.Suppressed
	}
	return v
}

// Sweep runs the battery across the machine set in a bounded worker
// pool (par.Run) — one job per (test, config) cell, each cell running
// Runs perturbed executions — and returns the verdict matrix in
// battery order (tests outer, configs inner). Cell seeds depend only
// on the cell's (test, config) indices, so the matrix is identical at
// any worker count. A bad checkpoint path or a journal belonging to a
// different sweep is returned as an error (the CLIs map it to the
// exit-code table) rather than panicking.
func Sweep(o SweepOptions) ([]Verdict, error) {
	tests := o.Tests
	if tests == nil {
		tests = Battery()
	}
	cfgs := o.Configs
	if cfgs == nil {
		cfgs = Configs()
	}
	runs := o.Runs
	if runs <= 0 {
		runs = 100
	}

	// The oracle is per-test, shared across the test's row.
	allowed := make([]*AllowedSet, len(tests))
	for i, t := range tests {
		allowed[i] = Allowed(t)
	}

	faultKey := ""
	if o.Fault.Enabled() {
		kinds := make([]string, len(o.Fault.Kinds))
		for i, k := range o.Fault.Kinds {
			kinds[i] = k.String()
		}
		faultKey = fmt.Sprintf("|fault=%s@%g/%d", strings.Join(kinds, ","), o.Fault.Rate, o.Fault.Seed)
	}
	if o.Cores > 0 {
		// Folded into the same suffix as the fault key so pre-existing
		// natural-width journals keep resuming unchanged.
		faultKey += fmt.Sprintf("|cores=%d", o.Cores)
	}
	cellKey := func(ti, ci int) string {
		return fmt.Sprintf("%s|%s|runs=%d|seed=%d%s",
			tests[ti].Name, cfgs[ci].Name, runs, o.Seed, faultKey)
	}
	var journal *par.Journal
	if o.Checkpoint != "" {
		names := make([]string, 0, len(tests)+len(cfgs))
		for _, t := range tests {
			names = append(names, t.Name)
		}
		for _, c := range cfgs {
			names = append(names, c.Name)
		}
		fp := fmt.Sprintf("litmus-v1|runs=%d|seed=%d|%s%s",
			runs, o.Seed, strings.Join(names, ","), faultKey)
		var err error
		if journal, err = par.OpenJournal(o.Checkpoint, fp); err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	verdicts := make([]Verdict, len(tests)*len(cfgs))
	var done int
	var mu sync.Mutex
	// abandoned marks cells the sweep gave up on (timeout): a straggler
	// goroutine that finishes later must not write its verdict slot.
	abandoned := make([]bool, len(verdicts))
	finish := func(cell int, v Verdict) {
		mu.Lock()
		defer mu.Unlock()
		if abandoned[cell] {
			return
		}
		verdicts[cell] = v
		done++
		if o.Progress != nil {
			o.Progress(done, len(verdicts), v)
		}
	}
	var todo []int
	for cell := range verdicts {
		ti, ci := cell/len(cfgs), cell%len(cfgs)
		var v Verdict
		if journal != nil && journal.Lookup(cellKey(ti, ci), &v) {
			finish(cell, v)
			continue
		}
		todo = append(todo, cell)
	}
	failures := par.RunSafe(par.SafeOptions{
		Workers: o.Workers, Retries: o.Retries, Timeout: o.CellTimeout,
		Label: func(j int) string {
			cell := todo[j]
			return cellKey(cell/len(cfgs), cell%len(cfgs))
		},
	}, len(todo), func(j int) error {
		cell := todo[j]
		ti, ci := cell/len(cfgs), cell%len(cfgs)
		v := RunCell(tests[ti], cfgs[ci], allowed[ti], runs, CellSeed(o.Seed, ti, ci), o.Fault, o.Cores)
		if journal != nil {
			if err := journal.Record(cellKey(ti, ci), v); err != nil {
				return err
			}
		}
		finish(cell, v)
		return nil
	})
	mu.Lock()
	for _, f := range failures {
		cell := todo[f.Index]
		ti, ci := cell/len(cfgs), cell%len(cfgs)
		abandoned[cell] = true
		verdicts[cell] = Verdict{
			Test: tests[ti].Name, Config: cfgs[ci].Name,
			Sound: cfgs[ci].Sound, Runs: runs, Error: f.String(),
		}
	}
	mu.Unlock()
	return verdicts, nil
}

// Summary condenses a verdict matrix into the battery-level result.
type Summary struct {
	// SoundOK is true when every sound cell passed.
	SoundOK bool `json:"sound_ok"`
	// UnsoundCaught is true when at least one cell caught each unsound
	// configuration present in the sweep (vacuously true without one).
	UnsoundCaught bool `json:"unsound_caught"`
	// FailedCells lists sound cells that failed, "test/config".
	FailedCells []string `json:"failed_cells,omitempty"`
	// CaughtBy lists unsound-config cells that observed a violation.
	CaughtBy []string `json:"caught_by,omitempty"`
	// Errors lists cells that did not run to completion (worker panic or
	// timeout) — infrastructure failures; the battery verdict cannot be
	// trusted until they are rerun, so callers must exit nonzero.
	Errors []string `json:"errors,omitempty"`
}

// Summarize computes the battery-level verdict: all sound cells clean,
// and every unsound config caught by at least one test.
func Summarize(vs []Verdict) Summary {
	sum := Summary{SoundOK: true}
	unsound := make(map[string]bool) // config name -> caught
	for _, v := range vs {
		if v.Error != "" {
			sum.Errors = append(sum.Errors, v.Test+"/"+v.Config+": "+v.Error)
			continue
		}
		if v.Sound {
			if !v.Pass() {
				sum.SoundOK = false
				sum.FailedCells = append(sum.FailedCells, v.Test+"/"+v.Config)
			}
			continue
		}
		if _, ok := unsound[v.Config]; !ok {
			unsound[v.Config] = false
		}
		if v.Caught() {
			unsound[v.Config] = true
			sum.CaughtBy = append(sum.CaughtBy, v.Test+"/"+v.Config)
		}
	}
	sum.UnsoundCaught = true
	names := make([]string, 0, len(unsound))
	for name := range unsound {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !unsound[name] {
			sum.UnsoundCaught = false
		}
	}
	sort.Strings(sum.FailedCells)
	sort.Strings(sum.CaughtBy)
	return sum
}
