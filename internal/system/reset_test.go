// Tests for System.Reset (DESIGN.md §17): one machine driven through a
// sequence of differing runs must, after every Reset, be
// indistinguishable from a machine freshly built by NewCustom for the
// same program and options — results, committed streams, fast-forward
// and stage-skip counts, fault counts, trace events, metrics snapshots
// and watchdog reports.

package system

import (
	"reflect"
	"strings"
	"testing"

	"vbmo/internal/cache"
	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/fault"
	"vbmo/internal/lsq"
	"vbmo/internal/pipeline"
	"vbmo/internal/prog"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

// eventLog is a trace sink that keeps every event, so two runs' event
// streams can be compared exactly.
type eventLog struct{ evs []trace.Event }

func (l *eventLog) Emit(ev trace.Event) { l.evs = append(l.evs, ev) }
func (l *eventLog) Flush() error        { return nil }

// resetRun is one run of a Reset sequence. opts builds the run's
// options for the machine *sys (the OnCycle probe needs the machine it
// runs on) and the event log, when the run is traced.
type resetRun struct {
	name   string
	work   string
	seed   uint64
	target uint64
	opts   func(sys **System) (Options, *eventLog)
}

// resetRuns differ in program, seed, DMA, the OnCycle probe, stage
// skip, fault injection, tracing, the watchdog, snapshots and
// consistency tracking. Two runs rerun the program before them under
// other options: the runs before them train the predictors and the
// prefetcher, so state that leaked through Reset would show.
func resetRuns(cores int) []resetRun {
	traced := func(o Options) (Options, *eventLog) {
		log := &eventLog{}
		o.Trace = trace.New(log)
		return o, log
	}
	return []resetRun{
		{"gzip-dma", "gzip", 1, 1500, func(**System) (Options, *eventLog) {
			return Options{Cores: cores, Seed: 1, DMAInterval: 700, DMABurst: 2}, nil
		}},
		{"ocean-traced", "ocean", 2, 1200, func(**System) (Options, *eventLog) {
			return traced(Options{Cores: cores, Seed: 2, TrackConsistency: true})
		}},
		{"mcf-probe-noskip", "mcf", 3, 1200, func(sys **System) (Options, *eventLog) {
			return Options{Cores: cores, Seed: 3, NoStageSkip: true,
				OnCycle: func(cycle int64) {
					if cycle%97 == 0 {
						(*sys).Bus.Probe(uint64(cycle&0xfff) << 6)
					}
				}}, nil
		}},
		{"jbb-mp-faults", "jbb-mp", 4, 1200, func(**System) (Options, *eventLog) {
			return traced(Options{Cores: cores, Seed: 4, DMAInterval: 900, TrackConsistency: true,
				Fault: &fault.Config{Kinds: []fault.Kind{fault.LoadValue, fault.DelaySnoop,
					fault.DropFill, fault.SuppressNUS}, Rate: 0.05, Seed: 11}})
		}},
		{"spin-mp-watchdog-snapshots", "spin-mp", 5, 800, func(**System) (Options, *eventLog) {
			return Options{Cores: cores, Seed: 5, WatchdogCycles: 3000, SnapshotInterval: 256}, nil
		}},
		{"gzip-livelock", "gzip", 6, 20000, func(**System) (Options, *eventLog) {
			return traced(Options{Cores: cores, Seed: 6, WatchdogCycles: 1500, MaxCycles: 40000,
				Fault: &fault.Config{Kinds: []fault.Kind{fault.LoadValue, fault.SuppressRule3},
					Rate: 1.0, Seed: 7}})
		}},
		{"gzip-livelock-program-again", "gzip", 6, 1500, func(**System) (Options, *eventLog) {
			return Options{Cores: cores, Seed: 6, DMAInterval: 700, DMABurst: 2}, nil
		}},
		{"ocean-snapshots-traced", "ocean", 7, 1200, func(**System) (Options, *eventLog) {
			return traced(Options{Cores: cores, Seed: 7, DMAInterval: 500, DMABurst: 3,
				SnapshotInterval: 200})
		}},
		{"mcf-noff-commits", "mcf", 8, 1500, func(**System) (Options, *eventLog) {
			return Options{Cores: cores, Seed: 8, NoFastForward: true, NoStageSkip: true}, nil
		}},
		{"mcf-program-again", "mcf", 8, 1500, func(**System) (Options, *eventLog) {
			return traced(Options{Cores: cores, Seed: 8, DMAInterval: 600, DMABurst: 2})
		}},
	}
}

// program generates a run's program and per-core initial states, as
// New does.
func (r resetRun) program(t *testing.T, cores int) (*prog.Program, []prog.ArchState) {
	t.Helper()
	work := mustWork(t, r.work)
	inits := make([]prog.ArchState, cores)
	for c := range inits {
		inits[c] = workload.InitState(work, c, r.seed)
	}
	return workload.Generate(work, r.seed), inits
}

// assertSameMachine checks every item of the Reset contract between a
// reset machine and a fresh one after the same run.
func assertSameMachine(t *testing.T, reset, fresh *System, logR, logF *eventLog) {
	t.Helper()
	if !reflect.DeepEqual(reset.Result(), fresh.Result()) {
		t.Errorf("Result diverged:\n reset: %+v\n fresh: %+v", reset.Result(), fresh.Result())
	}
	if a, b := reset.Result().Counters, fresh.Result().Counters; !reflect.DeepEqual(a, b) {
		t.Errorf("Counters diverged:\n reset: %v\n fresh: %v", a, b)
	}
	for c := range fresh.Cores {
		if a, b := reset.Cores[c].ArchState(), fresh.Cores[c].ArchState(); a != b {
			t.Errorf("core %d architectural state diverged", c)
		}
		if a, b := componentCounters(reset.Cores[c]), componentCounters(fresh.Cores[c]); a != b {
			t.Errorf("core %d component counters diverged:\n reset: %+v\n fresh: %+v", c, a, b)
		}
		if !reflect.DeepEqual(reset.Cores[c].SimplePredictor(), fresh.Cores[c].SimplePredictor()) {
			t.Errorf("core %d dependence predictor table diverged", c)
		}
	}
	if fresh.Shadow != nil {
		pa, ca := reset.Ops()
		pb, cb := fresh.Ops()
		if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(ca, cb) {
			t.Error("Ops() diverged")
		}
	}
	if a, b := reset.FastForwardStats(), fresh.FastForwardStats(); a != b {
		t.Errorf("FastForwardStats diverged: reset %+v fresh %+v", a, b)
	}
	if a, b := reset.StageSkipStats(), fresh.StageSkipStats(); a != b {
		t.Errorf("StageSkipStats diverged: reset %+v fresh %+v", a, b)
	}
	if a, b := reset.WorkStats(), fresh.WorkStats(); a != b {
		t.Errorf("WorkStats diverged: reset %+v fresh %+v", a, b)
	}
	if (reset.Faults == nil) != (fresh.Faults == nil) {
		t.Fatalf("fault injector presence diverged")
	}
	if fresh.Faults != nil && reset.Faults.Stats != fresh.Faults.Stats {
		t.Errorf("fault stats diverged: reset %+v fresh %+v", reset.Faults.Stats, fresh.Faults.Stats)
	}
	if !reflect.DeepEqual(reset.Deadlock, fresh.Deadlock) {
		t.Errorf("Deadlock diverged:\n reset: %v\n fresh: %v", reset.Deadlock, fresh.Deadlock)
	}
	if reset.Watchdog() != fresh.Watchdog() {
		t.Errorf("watchdog stats diverged: reset %+v fresh %+v", reset.Watchdog(), fresh.Watchdog())
	}
	if !reflect.DeepEqual(reset.Metrics, fresh.Metrics) {
		t.Error("metrics snapshots diverged")
	}
	if (logR == nil) != (logF == nil) {
		t.Fatal("tracing diverged")
	}
	if logF != nil && !reflect.DeepEqual(logR.evs, logF.evs) {
		t.Errorf("trace streams diverged: reset %d events, fresh %d", len(logR.evs), len(logF.evs))
	}
}

// coreComponents holds the per-core counters Result does not report,
// or reports only summed over the cores: the whole cache-hierarchy
// record, per-level miss rates and the memory queues' records.
type coreComponents struct {
	cache      cache.Stats
	l1, l2, l3 float64
	sq         lsq.SQStats
	lq         lsq.LQStats
}

func componentCounters(c *pipeline.Core) coreComponents {
	h := c.Hierarchy()
	v := coreComponents{cache: h.Stats, sq: c.StoreQueue().Stats}
	v.l1, v.l2, v.l3 = h.MissRates()
	if lq := c.LoadQueue(); lq != nil {
		v.lq = lq.Stats
	}
	return v
}

// namedMachine is one configuration a Reset sequence runs on.
type namedMachine struct {
	name string
	mc   config.Machine
}

// resetMachines is the registry plus a machine on which the livelock
// run really deadlocks, so a non-nil watchdog report is compared too.
func resetMachines() []namedMachine {
	var ms []namedMachine
	for _, name := range config.Names() {
		mc, _ := config.ByName(name)
		ms = append(ms, namedMachine{name, mc})
	}
	livelock := config.Replay(core.ReplayAll)
	livelock.SquashIncludesLoad = true
	return append(ms, namedMachine{"replay-all+squash-load", livelock})
}

// TestResetMatchesFresh drives one 2-core machine per configuration
// through the resetRuns sequence and checks, after every run, that it
// matches a fresh NewCustom machine run the same way, down to every
// instruction each core committed (tapped through CommitHook on both
// machines). The registry covers the bloom-filtered load queue, the
// two-level store queue, value prediction, store sets, the TLB and the
// prefetcher, none of which the litmus configurations use.
func TestResetMatchesFresh(t *testing.T) {
	const cores = 2
	deadlocks := 0
	for _, m := range resetMachines() {
		mc := m.mc
		t.Run(m.name, func(t *testing.T) {
			var reused *System
			for i, r := range resetRuns(cores) {
				p, inits := r.program(t, cores)
				var fresh *System
				optF, logF := r.opts(&fresh)
				fresh = NewCustom(mc, p, inits, optF)
				commitsF := tapCommits(fresh)
				fresh.Advance(r.target, optF)

				optR, logR := r.opts(&reused)
				if reused == nil {
					reused = NewCustom(mc, p, inits, optR)
				} else {
					before := reused.Cores[0]
					reused.Reset(p, inits, optR)
					if reused.Cores[0] != before {
						t.Fatalf("run %d (%s): Reset replaced the cores instead of reusing them", i, r.name)
					}
				}
				commitsR := tapCommits(reused)
				reused.Advance(r.target, optR)
				if fresh.Deadlock != nil {
					deadlocks++
				}
				t.Run(r.name, func(t *testing.T) {
					assertSameMachine(t, reused, fresh, logR, logF)
					for c := range commitsF {
						if a, b := commitsR[c], commitsF[c]; !reflect.DeepEqual(a, b) {
							t.Errorf("core %d committed stream diverged: %d vs %d records", c, len(a), len(b))
						}
					}
				})
			}
		})
	}
	if deadlocks == 0 {
		t.Error("no run deadlocked: the watchdog report was never compared")
	}
}

// TestResetCoreCountPanics: Reset keeps the machine's core count.
func TestResetCoreCountPanics(t *testing.T) {
	mc, _ := config.ByName("baseline")
	r := resetRuns(2)[0]
	p, inits := r.program(t, 2)
	s := NewCustom(mc, p, inits, Options{Cores: 2, Seed: r.seed})
	p4, inits4 := r.program(t, 4)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Reset to 4 cores on a 2-core machine") {
			t.Fatalf("Reset with another core count: recovered %q, want the core-count panic", msg)
		}
	}()
	s.Reset(p4, inits4, Options{Cores: 4, Seed: r.seed})
}

// TestResetStatsZeroesCounters: right after a warm-up and ResetStats,
// every counter Result reports, and every host work count, reads zero
// on every registered machine, so no warm-up activity leaks into a
// measured window. The warm-up
// must have moved the counters first, or the test proves nothing.
func TestResetStatsZeroesCounters(t *testing.T) {
	work := mustWork(t, "gzip")
	for _, name := range config.Names() {
		mc, _ := config.ByName(name)
		opt := Options{Cores: 1, Seed: 42, DMAInterval: 4000, DMABurst: 2}
		s := New(mc, work, opt)
		s.Advance(5000, opt)
		warm, warmWork := s.Result().Counters, s.WorkStats()
		s.ResetStats()
		res := s.Result()
		for _, k := range res.Counters.Names() {
			if v := res.Counters.Get(k); v != 0 {
				t.Errorf("%s: counter %s = %d after ResetStats (warm-up moved it to %d)",
					name, k, v, warm.Get(k))
			}
		}
		if res.Pipe != (pipeline.Stats{}) {
			t.Errorf("%s: pipeline statistics survive ResetStats: %+v", name, res.Pipe)
		}
		if w := s.WorkStats(); w != (pipeline.WorkStats{}) {
			t.Errorf("%s: work counts survive ResetStats: %+v (warm-up: %+v)", name, w, warmWork)
		}
		if warmWork.Steps == 0 || warmWork.SQCompares == 0 {
			t.Errorf("%s: the warm-up never moved the work counts: %+v", name, warmWork)
		}
		for _, k := range []string{"tlb.accesses", "bp.lookups", "sq.searches"} {
			if warm.Get(k) == 0 {
				t.Errorf("%s: the warm-up never moved %s", name, k)
			}
		}
	}
}
