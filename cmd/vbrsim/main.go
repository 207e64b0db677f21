// Command vbrsim runs one workload on one machine configuration and
// prints its statistics.
//
// Exit codes: 0 success; 1 usage or infrastructure failure (including
// failed sweep cells); 2 SC violation; 3 run ended before the commit
// target; 4 watchdog deadlock; 5 an injected fault escaped detection.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/consistency"
	"vbmo/internal/exitcode"
	"vbmo/internal/farm/cachekey"
	"vbmo/internal/fault"
	"vbmo/internal/par"
	"vbmo/internal/stats"
	"vbmo/internal/system"
	"vbmo/internal/trace"
	"vbmo/internal/workload"
)

func main() {
	var (
		workName = flag.String("workload", "gzip", "workload name (see -list)")
		machine  = flag.String("machine", "baseline", "machine configuration (see -list-machines)")
		cores    = flag.Int("cores", 1, "number of processors")
		insts    = flag.Uint64("n", 100000, "instructions to commit per core")
		seed     = flag.Uint64("seed", 42, "random seed")
		seeds    = flag.Int("seeds", 1, "sweep N consecutive seeds (seed, seed+1, ...) and report each run")
		workers  = flag.Int("workers", 0, "worker pool size for a -seeds sweep (1 = serial, 0 = one per GOMAXPROCS)")
		list     = flag.Bool("list", false, "list workloads and exit")
		listMach = flag.Bool("list-machines", false, "list machine configurations and exit")
		verifySC = flag.Bool("sc", false, "verify sequential consistency with the constraint-graph checker")
		jsonOut  = flag.Bool("json", false, "emit the end-of-run counters as a single JSON object instead of text")
		verbose  = flag.Bool("v", false, "print detailed counters")

		faultKinds  = flag.String("fault", "", "inject faults: comma-separated kinds (see internal/fault) or \"all\" (empty = off)")
		faultRate   = flag.Float64("fault-rate", 0.001, "per-opportunity fault probability (1.0 = every opportunity)")
		faultSeed   = flag.Uint64("fault-seed", 0, "fault RNG seed; each run mixes in its own -seed")
		faultDelay  = flag.Int64("fault-delay", 0, "base delay in cycles for delay-* kinds (0 = package default)")
		wdCycles    = flag.Int64("watchdog-cycles", 0, "declare deadlock after N cycles with no commit on any core (0 = off)")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell wall-clock deadline for a -seeds sweep (0 = none; nondeterministic)")
		retries     = flag.Int("retries", 0, "re-attempts for a failed sweep cell")
		resume      = flag.String("resume", "", "JSONL checkpoint journal for a -seeds sweep; seeds it already holds are replayed, not re-run")

		traceOut    = flag.String("trace", "", "write the event trace to this file (- for stdout)")
		traceFormat = flag.String("trace-format", "jsonl", "trace format: jsonl | chrome | ring")
		traceRing   = flag.Int("trace-ring", 512, "ring format: events retained")
		traceFreeze = flag.String("trace-freeze", "", "ring format: freeze trigger: squash | replay-squash (empty = keep rolling)")
		snapEvery   = flag.Int64("snapshot-interval", 0, "sample metrics snapshots every N cycles (0 = off)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *list {
		for _, w := range workload.Catalog() {
			kind := "uni"
			if w.Multi {
				kind = "mp"
			}
			fmt.Printf("%-12s %-10s %s\n", w.Name, w.Suite, kind)
		}
		return
	}
	if *listMach {
		for _, name := range config.Names() {
			fmt.Printf("%-20s %s\n", name, config.Describe(name))
		}
		return
	}
	work, ok := workload.ByName(*workName)
	if !ok {
		names := make([]string, 0, len(workload.Catalog()))
		for _, w := range workload.Catalog() {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "unknown workload %q; valid workloads: %s\n",
			*workName, strings.Join(names, ", "))
		os.Exit(exitcode.Err)
	}
	cfg, ok := config.ByName(*machine)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown machine %q; valid machines: %s\n",
			*machine, strings.Join(config.Names(), ", "))
		os.Exit(exitcode.Err)
	}
	fc, err := fault.FromFlags(*faultKinds, *faultRate, *faultSeed, *faultDelay)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
	}
	if *cores < 1 || *cores > config.MaxCores {
		fmt.Fprintf(os.Stderr, "-cores must be between 1 and %d\n", config.MaxCores)
		os.Exit(exitcode.Err)
	}
	o := runOptions{cores: *cores, insts: *insts, verifySC: *verifySC, fault: fc, wdCycles: *wdCycles}
	if *seeds > 1 {
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "-trace is incompatible with -seeds > 1 (interleaved runs would share one event stream)")
			os.Exit(exitcode.Err)
		}
		if *snapEvery != 0 {
			fmt.Fprintln(os.Stderr, "-snapshot-interval is incompatible with -seeds > 1")
			os.Exit(exitcode.Err)
		}
		runSeedSweep(cfg, work, sweepOptions{
			runOptions: o, baseSeed: *seed, seeds: *seeds,
			workers: *workers, jsonOut: *jsonOut,
			cellTimeout: *cellTimeout, retries: *retries, journal: *resume,
		})
		return
	}
	if *resume != "" || *cellTimeout != 0 || *retries != 0 {
		fmt.Fprintln(os.Stderr, "-resume, -cell-timeout and -retries apply only to a -seeds sweep")
		os.Exit(exitcode.Err)
	}
	// Trace plumbing: the chosen format's sink is teed with a counting
	// sink so the end-of-run summary can report per-kind event totals.
	var (
		counts   = &trace.CountSink{}
		ring     *trace.RingSink
		fileSink trace.Sink
		traceDst *os.File
		tracer   *trace.Tracer
		closeDst bool
	)
	if *traceOut != "" {
		traceDst = os.Stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(exitcode.Err)
			}
			traceDst = f
			closeDst = true
		}
		switch *traceFormat {
		case "jsonl":
			fileSink = trace.NewJSONLSink(traceDst)
		case "chrome":
			fileSink = trace.NewChromeSink(traceDst)
		case "ring":
			if *traceRing <= 0 {
				fmt.Fprintf(os.Stderr, "-trace-ring must be positive (got %d)\n", *traceRing)
				os.Exit(exitcode.Err)
			}
			ring = trace.NewRingSink(*traceRing)
			switch *traceFreeze {
			case "":
				// Keep rolling: the ring ends up holding the last events
				// of the run.
			case "squash":
				ring.FreezeWhen = func(ev trace.Event) bool {
					return ev.Kind == trace.KSquash
				}
			case "replay-squash":
				ring.FreezeWhen = func(ev trace.Event) bool {
					return ev.Kind == trace.KSquash &&
						(ev.Reason == trace.RSquashReplayRAW ||
							ev.Reason == trace.RSquashReplayCons ||
							ev.Reason == trace.RSquashVPred)
				}
			default:
				fmt.Fprintf(os.Stderr, "unknown -trace-freeze %q\n", *traceFreeze)
				os.Exit(exitcode.Err)
			}
			fileSink = ring
		default:
			fmt.Fprintf(os.Stderr, "unknown -trace-format %q\n", *traceFormat)
			os.Exit(exitcode.Err)
		}
		tracer = trace.New(&trace.TeeSink{Sinks: []trace.Sink{fileSink, counts}})
	}

	o.trace, o.snapEvery = tracer, *snapEvery
	r, d := runSeed(cfg, work, o, *seed)
	s, p := d.s, d.res.Pipe
	if !*jsonOut {
		fmt.Println(d.res)
		fmt.Printf("loads=%d stores=%d branches=%d mispredict=%.4f\n",
			p.CommittedLoads, p.CommittedStores, p.CommittedBranches,
			float64(d.res.Counters.Get("bp.mispredicts"))/float64(max64(1, d.res.Counters.Get("bp.lookups"))))
		fmt.Printf("L1D: demand=%d forwarded=%d replay=%d store=%d\n",
			p.DemandLoadAccesses, p.ForwardedLoads, p.ReplayAccesses, p.StoreAccesses)
		fmt.Printf("squash: mispred=%d rawLQ=%d invalLQ=%d replayRAW=%d replayCons=%d\n",
			p.SquashesMispredict, p.SquashesRAW, p.SquashesInval, p.SquashesReplayRAW, p.SquashesReplayCons)
		fmt.Printf("flags: NUS=%d reordered=%d  ROBavg=%.1f\n",
			p.LoadsNUSFlagged, p.LoadsReordered, p.AvgROBOccupancy())
		fmt.Printf("replays/instr=%.4f  sim-speed=%.0f inst/s\n",
			float64(p.ReplayAccesses)/float64(p.Committed),
			float64(p.Committed)/r.Out.ElapsedSec)
		if ffs := s.FastForwardStats(); ffs.Windows > 0 {
			fmt.Printf("fast-forward: windows=%d skipped-cycles=%d (%.1f%% of cycles) probes=%d\n",
				ffs.Windows, ffs.SkippedCycles, 100*float64(ffs.SkippedCycles)/float64(max64(1, uint64(d.res.Cycles))),
				ffs.Probes)
		}
		if sks := s.StageSkipStats(); sks.Total() > 0 {
			// The rate denominator is the cores' summed cycle counts,
			// vbrbench's pipeline.skip_*_frac denominator. It includes
			// fast-forwarded cycles, which never reach the stage scans,
			// and leaves out a core's cycles after it finished and
			// stopped stepping. parked= counts the parked loads running
			// issue scans charged instead of searching the store queue.
			cc := max64(1, uint64(p.Cycles))
			fmt.Printf("stage-skip: wb=%.1f%% capture=%.1f%% commit=%.1f%% replay=%.1f%% issue=%.1f%% of core-cycles parked=%d\n",
				100*float64(sks.Writeback)/float64(cc), 100*float64(sks.Capture)/float64(cc),
				100*float64(sks.Commit)/float64(cc), 100*float64(sks.Replay)/float64(cc),
				100*float64(sks.Issue)/float64(cc), sks.ParkedProbes)
		}
		if s.Metrics != nil {
			fmt.Printf("snapshots: %d recorded  occupancy means: ROB=%.1f LQ=%.1f SQ=%.1f (core 0)\n",
				len(s.Metrics.Snapshots),
				s.Metrics.ROB[0].Mean(), s.Metrics.LQ[0].Mean(), s.Metrics.SQ[0].Mean())
		}
		switch g := d.scGraph; {
		case r.SCViol:
			fmt.Printf("SC VIOLATION: %s at proc %d memory op %d addr %#x\n", g, d.scOp.Proc, d.scOp.Index, d.scOp.Addr)
			printCycle(g.FindCyclePath())
		case g != nil:
			fmt.Printf("sequentially consistent ✓ (%s)\n", g)
		}
		if s.Faults != nil {
			fmt.Println(s.Faults.Summary())
			fmt.Printf("fault detection latency: %s\n", s.Faults.Lat.String())
		}
	} else if err := json.NewEncoder(os.Stdout).Encode(r.Out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
	}
	if tracer != nil {
		if ring != nil {
			// Ring post-mortem: dump the frozen (or final) window as text.
			state := "last"
			if ring.Frozen() {
				state = "frozen at trigger;"
			}
			fmt.Fprintf(traceDst, "# ring post-mortem: %s %d events\n", state, ring.Len())
			if err := ring.Dump(traceDst); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(exitcode.Err)
			}
		}
		if err := tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitcode.Err)
		}
		if closeDst {
			if err := traceDst.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(exitcode.Err)
			}
		}
		if !*jsonOut {
			fmt.Printf("trace: %d events (load-issue=%d filter=%d replay=%d mismatch=%d squash=%d snoop=%d fill=%d graph-edge=%d)\n",
				counts.Total(),
				counts.Count(trace.KLoadIssue), counts.Count(trace.KFilterDecision),
				counts.Count(trace.KReplay), counts.Count(trace.KValueMismatch),
				counts.Count(trace.KSquash), counts.Count(trace.KSnoopInval),
				counts.Count(trace.KExtFill), counts.Count(trace.KGraphEdge))
		}
	}
	if *verbose && !*jsonOut {
		fmt.Print(d.res.Counters)
	}
	if s.Deadlock != nil {
		fmt.Fprintln(os.Stderr, s.Deadlock)
	}
	exit([]seedRun{r}, o.target(), false)
}

// attachDiagnostics copies the run's fault/watchdog/progress state onto
// the JSON result; all fields stay omitted for a clean, feature-off run.
func attachDiagnostics(out *jsonResult, s *system.System, incomplete bool) {
	if s.Faults != nil {
		st := s.Faults.Stats
		out.Faults = &st
		out.FaultLatMean = s.Faults.Lat.Mean()
	}
	if wd := s.Watchdog(); wd.Storms > 0 || wd.Throttles > 0 {
		out.Watchdog = &wd
	}
	if s.Deadlock != nil {
		out.DeadlockCycle = s.Deadlock.Cycle
	}
	out.Incomplete = incomplete
}

// jsonResult is the -json output shape: the end-of-run counters as one
// JSON object on stdout, nothing else.
type jsonResult struct {
	Machine    string            `json:"machine"`
	Workload   string            `json:"workload"`
	Cores      int               `json:"cores"`
	Seed       uint64            `json:"seed"`
	Cycles     int64             `json:"cycles"`
	Committed  uint64            `json:"committed"`
	IPC        float64           `json:"ipc"`
	ElapsedSec float64           `json:"elapsed_sec"`
	Loads      uint64            `json:"loads"`
	Stores     uint64            `json:"stores"`
	Branches   uint64            `json:"branches"`
	Replays    uint64            `json:"replays"`
	Squashes   jsonSquashes      `json:"squashes"`
	SC         *string           `json:"sc,omitempty"`
	Counters   map[string]uint64 `json:"counters"`

	// Diagnostics, all omitted for a clean run with faults off.
	Faults        *fault.Stats          `json:"faults,omitempty"`
	FaultLatMean  float64               `json:"fault_lat_mean,omitempty"`
	Watchdog      *system.WatchdogStats `json:"watchdog,omitempty"`
	DeadlockCycle int64                 `json:"deadlock_cycle,omitempty"`
	Incomplete    bool                  `json:"incomplete,omitempty"`
	Error         string                `json:"error,omitempty"`
}

type jsonSquashes struct {
	Mispredict uint64 `json:"mispredict"`
	RAWLQ      uint64 `json:"raw_lq"`
	InvalLQ    uint64 `json:"inval_lq"`
	ReplayRAW  uint64 `json:"replay_raw"`
	ReplayCons uint64 `json:"replay_cons"`
}

// resultJSON flattens an end-of-run Result into the -json wire shape.
func resultJSON(res system.Result, seed uint64, elapsed float64) jsonResult {
	p := res.Pipe
	counters := make(map[string]uint64, len(res.Counters.Names()))
	for _, name := range res.Counters.Names() {
		counters[name] = res.Counters.Get(name)
	}
	return jsonResult{
		Machine:    res.Machine,
		Workload:   res.Workload,
		Cores:      res.Cores,
		Seed:       seed,
		Cycles:     res.Cycles,
		Committed:  p.Committed,
		IPC:        res.IPC,
		ElapsedSec: elapsed,
		Loads:      p.CommittedLoads,
		Stores:     p.CommittedStores,
		Branches:   p.CommittedBranches,
		Replays:    p.ReplayAccesses,
		Squashes: jsonSquashes{
			Mispredict: p.SquashesMispredict,
			RAWLQ:      p.SquashesRAW,
			InvalLQ:    p.SquashesInval,
			ReplayRAW:  p.SquashesReplayRAW,
			ReplayCons: p.SquashesReplayCons,
		},
		Counters: counters,
	}
}

// maxCycleLines caps the cycle a violation prints.
const maxCycleLines = 32

// printCycle prints a constraint-graph cycle, one op per line: its
// processor, memory-op index (its place among the processor's
// committed loads and stores), kind, address, value, and the writer it
// stored as or read from.
func printCycle(path []consistency.Op) {
	fmt.Printf("cycle of %d ops:\n", len(path))
	for i, op := range path {
		if i == maxCycleLines-1 && len(path) > maxCycleLines {
			fmt.Printf("  ... %d more\n", len(path)-i)
			return
		}
		kind, w := "load ", op.ReadsFrom
		if op.Kind == consistency.OpStore {
			kind, w = "store", op.Self
		}
		fmt.Printf("  proc %d memory op %d %s addr %#x value %#x writer %s\n",
			op.Proc, op.Index, kind, op.Addr, op.Value, writerName(w))
	}
}

// writerName renders a store identity: the initial value, a DMA write,
// or a processor's n-th committed store.
func writerName(w consistency.Writer) string {
	switch {
	case w == consistency.InitialValue:
		return "initial"
	case w.Proc() == consistency.DMAProc:
		return fmt.Sprintf("dma#%d", w.StoreSeq())
	}
	return fmt.Sprintf("proc %d store#%d", w.Proc(), w.StoreSeq())
}

// runOptions scopes one run of the workload: the single run, or one
// cell of a -seeds sweep.
type runOptions struct {
	cores    int
	insts    uint64
	verifySC bool
	fault    *fault.Config
	wdCycles int64

	// The single run's event tracer and snapshot interval; a sweep's
	// cells interleave, so they run with neither.
	trace     *trace.Tracer
	snapEvery int64
}

// target is the run's commit target, summed over its cores.
func (o runOptions) target() uint64 { return o.insts * uint64(o.cores) }

// sweepOptions scopes one -seeds sweep.
type sweepOptions struct {
	runOptions
	baseSeed uint64
	seeds    int
	workers  int
	jsonOut  bool

	cellTimeout time.Duration
	retries     int
	journal     string
}

// seedRun is the record of one run: the full -json result plus the SC
// verdict bit. A sweep journals it, so a resumed cell replays
// bit-identically in both output modes without re-simulating.
type seedRun struct {
	Out    jsonResult `json:"out"`
	SCViol bool       `json:"sc_viol,omitempty"`
}

// runDetail is what a run leaves besides its record, for the single
// run's text report: the machine, its result and its SC check (scGraph
// is nil without -sc).
type runDetail struct {
	s       *system.System
	res     system.Result
	scOp    consistency.Op
	scGraph *consistency.Graph
}

// runSeed runs the workload at seed: the single run, and the cell body
// of a -seeds sweep, so a seed's record is the same either way. Its
// fault plan is the -fault plan for its seed (fault.Config.ForRun).
func runSeed(cfg config.Machine, work workload.Params, o runOptions, seed uint64) (seedRun, runDetail) {
	opt := system.Options{
		Cores: o.cores, Seed: seed,
		DMAInterval: 4000, DMABurst: 2,
		TrackConsistency: o.verifySC,
		Trace:            o.trace,
		SnapshotInterval: o.snapEvery,
		Fault:            o.fault.ForRun(seed),
		WatchdogCycles:   o.wdCycles,
	}
	d := runDetail{s: system.New(cfg, work, opt)}
	start := time.Now()
	d.res = d.s.Run(o.insts, opt)
	r := seedRun{Out: resultJSON(d.res, seed, time.Since(start).Seconds())}
	if o.verifySC {
		// The check runs before the single run flushes its trace, so the
		// checker's graph-edge events land in the trace file.
		var cyc bool
		d.scOp, cyc, d.scGraph = d.s.CheckSC()
		sc := fmt.Sprintf("consistent (%s)", d.scGraph)
		if cyc {
			sc = fmt.Sprintf("violation: %s at proc %d op %d addr %#x", d.scGraph, d.scOp.Proc, d.scOp.Index, d.scOp.Addr)
			r.SCViol = true
		}
		r.Out.SC = &sc
	}
	attachDiagnostics(&r.Out, d.s, d.res.Pipe.Committed < o.target())
	return r, d
}

// exit ends the process on the worst soundness failure among runs, in
// severity order: an SC violation outranks everything, a watchdog
// deadlock outranks the incomplete run it necessarily causes, and a
// fault that escaped detection is reported even when its run completed.
// Runs that are all sound still exit 1 when a sweep cell failed
// outright. A failed cell's record holds only its error.
func exit(runs []seedRun, target uint64, cellsFailed bool) {
	first := func(bad func(r *seedRun) bool) *jsonResult {
		for i := range runs {
			if bad(&runs[i]) {
				return &runs[i].Out
			}
		}
		return nil
	}
	if first(func(r *seedRun) bool { return r.SCViol }) != nil {
		os.Exit(exitcode.SCViolation)
	}
	if o := first(func(r *seedRun) bool { return r.Out.DeadlockCycle != 0 }); o != nil {
		fmt.Fprintf(os.Stderr, "DEADLOCK: seed %d stopped at cycle %d\n", o.Seed, o.DeadlockCycle)
		os.Exit(exitcode.Deadlock)
	}
	if o := first(func(r *seedRun) bool { return r.Out.Faults != nil && r.Out.Faults.Missed > 0 }); o != nil {
		fmt.Fprintf(os.Stderr, "FAULT MISS: seed %d committed %d injected fault(s) undetected\n", o.Seed, o.Faults.Missed)
		os.Exit(exitcode.FaultEscape)
	}
	if o := first(func(r *seedRun) bool { return r.Out.Incomplete }); o != nil {
		fmt.Fprintf(os.Stderr, "INCOMPLETE: seed %d committed %d of %d target instructions\n", o.Seed, o.Committed, target)
		os.Exit(exitcode.Incomplete)
	}
	if cellsFailed {
		os.Exit(exitcode.Err)
	}
}

// seedSweep is a finished -seeds sweep: one record per seed in seed
// order, which seeds failed, the failures, and how many cells were
// replayed from the journal.
type seedSweep struct {
	runs     []seedRun
	failed   []bool
	failures []par.Failure
	resumed  int
}

// sweepSeeds runs the workload once per seed on par.Sweep. The journal
// keys each seed as a "run" cell (cachekey.Sim) holding everything
// that shapes its record, so a journal serves any later sweep over the
// same runs: -seeds 8 after -seeds 4 replays four seeds and runs four.
// A failed seed's record carries its error.
func sweepSeeds(cfg config.Machine, work workload.Params, o sweepOptions) (seedSweep, error) {
	seed := func(i int) uint64 { return o.baseSeed + uint64(i) }
	runs, failures, resumed, err := par.Sweep(par.SweepOptions[seedRun]{
		Workers: o.workers, Retries: o.retries, Timeout: o.cellTimeout,
		Journal: o.journal,
		Key: func(i int) string {
			return cachekey.Sim("run", cfg, work, o.cores, 0, o.insts, seed(i),
				fmt.Sprintf("sc=%t", o.verifySC), cachekey.Fault(o.fault),
				fmt.Sprintf("watchdog=%d", o.wdCycles))
		},
		Label: func(i int) string { return fmt.Sprintf("seed=%d", seed(i)) },
	}, o.seeds, func(i int) (seedRun, error) {
		r, _ := runSeed(cfg, work, o.runOptions, seed(i))
		return r, nil
	})
	if err != nil {
		return seedSweep{}, err
	}
	sw := seedSweep{runs: runs, failed: make([]bool, o.seeds), failures: failures, resumed: resumed}
	for _, f := range failures {
		sw.failed[f.Index] = true
		runs[f.Index] = seedRun{Out: jsonResult{
			Machine: cfg.Name, Workload: work.Name, Cores: o.cores,
			Seed: seed(f.Index), Error: f.String(),
		}}
	}
	return sw, nil
}

// runSeedSweep runs the sweep and reports every run in seed order: JSON
// Lines (one -json object per run) or a text table with an IPC summary.
// Results are written only after every cell finishes, so output order —
// and, because each cell derives its own seed, every number in it — is
// independent of worker scheduling.
func runSeedSweep(cfg config.Machine, work workload.Params, o sweepOptions) {
	sw, err := sweepSeeds(cfg, work, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
	}
	var ipc stats.Sample
	enc := json.NewEncoder(os.Stdout)
	for i := range sw.runs {
		r := &sw.runs[i]
		if !sw.failed[i] {
			ipc.Observe(r.Out.IPC)
		}
		if o.jsonOut {
			if err := enc.Encode(r.Out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(exitcode.Err)
			}
			continue
		}
		if sw.failed[i] {
			fmt.Printf("seed=%-6d FAILED: %s\n", o.baseSeed+uint64(i), r.Out.Error)
			continue
		}
		p := &r.Out
		fmt.Printf("seed=%-6d ipc=%.4f committed=%d cycles=%d replays=%d squashes=%d",
			o.baseSeed+uint64(i), p.IPC, p.Committed, p.Cycles, p.Replays,
			p.Squashes.Mispredict+p.Squashes.RAWLQ+p.Squashes.InvalLQ+p.Squashes.ReplayRAW+p.Squashes.ReplayCons)
		if o.verifySC {
			fmt.Printf(" sc=%q", *p.SC)
		}
		if p.Faults != nil {
			fmt.Printf(" faults=%d/%d detected", p.Faults.Detected, p.Faults.Injected)
		}
		if p.DeadlockCycle != 0 {
			fmt.Printf(" DEADLOCK@%d", p.DeadlockCycle)
		}
		fmt.Println()
	}
	if !o.jsonOut {
		fmt.Printf("%d seeds: IPC %s\n", o.seeds, ipc.String())
		if sw.resumed > 0 {
			fmt.Printf("resumed %d cell(s) from %s\n", sw.resumed, o.journal)
		}
	}
	for _, f := range sw.failures {
		fmt.Fprintf(os.Stderr, "FAILED %s\n", f)
	}
	// Graceful degradation: completed cells were all reported above;
	// any soundness or infrastructure failure still exits nonzero.
	exit(sw.runs, o.target(), len(sw.failures) > 0)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
