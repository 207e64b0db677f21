package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/farm"
	"vbmo/internal/litmus"
	"vbmo/internal/stats"
	"vbmo/internal/system"
	"vbmo/internal/workload"
)

// budget sizes one pass of every workload. The full budget makes a pass
// take about three seconds on a 2-CPU x86-64 host; the quick budget is
// for the smoke test and still exercises every check.
type budget struct {
	uniWarm, uniWindow uint64 // committed instructions per core
	mpWindow           uint64 // per core, from a cold start
	mpPrograms         int    // programs per mp16 (machine, workload) cell
	litmusRuns         int    // runs per (test, config) cell
	scWindow           uint64 // per core, for each CheckSC run
	scPrograms         int    // CheckSC runs per pass
	farmUniInstr       uint64
	farmMPInstr        uint64
	farmMPCores        int
	farmLitmusRuns     int
	farmWarmJobs       int
	probes             int // Quiescent probes per core in a traced pass
}

var (
	fullBudget = budget{
		uniWarm: 50_000, uniWindow: 450_000,
		mpWindow: 2_500, mpPrograms: 12,
		litmusRuns: 30, scWindow: 20_000, scPrograms: 2,
		farmUniInstr: 400_000, farmMPInstr: 20_000, farmMPCores: 16,
		farmLitmusRuns: 100, farmWarmJobs: 2000,
		probes: 200,
	}
	quickBudget = budget{
		uniWarm: 2_000, uniWindow: 10_000,
		mpWindow: 500, mpPrograms: 1,
		litmusRuns: 12, scWindow: 1_000, scPrograms: 1,
		farmUniInstr: 2_000, farmMPInstr: 300, farmMPCores: 4,
		farmLitmusRuns: 5, farmWarmJobs: 20,
		probes: 5,
	}
)

// passResult is what a child process reports for one pass. The parent
// adds wall_s, which only it can observe.
type passResult struct {
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Counts    map[string]uint64  `json:"counts"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	// TracedOnlyS is the time a traced pass spends on work untraced
	// passes skip (the Quiescent probes, the farm's direct cell runs);
	// trace.overhead_frac leaves it out.
	TracedOnlyS float64 `json:"traced_only_s,omitempty"`
}

// maxFailureNotes bounds the failure messages one pass carries; Failed
// still counts every failure.
const maxFailureNotes = 10

// pass is one workload execution inside a child process.
type pass struct {
	seed uint64
	b    budget
	rec  *spanRecorder // nil on untraced passes
	res  passResult
	sum  hash.Hash // digest of every deterministic result

	setup   time.Duration // set-up work: generation, system.New, Allowed, server open
	ops     float64       // the workload's operations (see README.md)
	opsTime time.Duration // host time spent on those operations
	ipc     []float64     // simulated IPC per simulated program

	mallocs, allocBytes uint64 // heap activity during measured windows
	farm                farmTimes
}

// farmTimes holds the farm workload's request timings.
type farmTimes struct {
	coldS    float64
	warmMS   []float64
	execSum  time.Duration
	hitCells uint64
	total    uint64
}

var workloadRunners = map[string]func(*pass) error{
	"uni":      (*pass).runUni,
	"mp16":     (*pass).runMP16,
	"verify16": (*pass).runVerify16,
	"farm":     (*pass).runFarm,
}

// passProcs is the number of Ps (GOMAXPROCS) a pass runs with. With
// two, the Go runtime stops the world across both, and on a shared
// host, whenever the hypervisor holds one vCPU back, the collector
// waits for it. Over twelve seeds, run alternately with each setting,
// verify16's wall time spread 0.16 with two Ps and 0.06 with one, and
// its runs with two Ps took up to twice as long; the farm's warm-job
// throughput spread 0.27 with two and 0.10 with one. Simulation is
// single-threaded anyway; the farm's two executors share the one P, so
// its cold job measures their work, not their parallel speed-up.
const passProcs = 1

// runPass executes one pass of the named workload. A traced pass also
// records spans and a CPU profile and reports the per-layer metrics.
func runPass(name string, seed uint64, b budget, traced bool) (passResult, error) {
	run, ok := workloadRunners[name]
	if !ok {
		return passResult{}, fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(passProcs)
	p := &pass{seed: seed, b: b, sum: sha256.New(),
		res: passResult{Counts: map[string]uint64{}}}
	var prof bytes.Buffer
	if traced {
		p.rec = newSpanRecorder()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return passResult{}, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	root := p.rec.begin("vbrbench.pass")
	err := run(p)
	p.rec.end(root, 1)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return passResult{}, fmt.Errorf("%s: %w", name, err)
	}

	rss, err := peakRSS()
	if err != nil {
		return passResult{}, fmt.Errorf("reading peak RSS: %w", err)
	}
	p.res.Digest = fmt.Sprintf("%x", p.sum.Sum(nil))
	p.res.EndToEnd = map[string]float64{
		"setup_s":    p.setup.Seconds(),
		"throughput": p.ops / p.opsTime.Seconds(),
		"sim_ipc":    stats.Mean(p.ipc),
		"max_rss_mb": rss,
	}
	if traced {
		p.res.PerLayer = p.perLayer()
		shares, err := hostShares(prof.Bytes())
		if err != nil {
			return passResult{}, fmt.Errorf("decoding CPU profile: %w", err)
		}
		for k, v := range shares {
			p.res.PerLayer[k] = v
		}
		p.res.Spans = p.rec.spans
	}
	return p.res, nil
}

// timed runs f inside a span named name that covers n operations and
// returns its wall time.
func (p *pass) timed(name string, n int, f func()) time.Duration {
	id := p.rec.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	p.rec.end(id, n)
	return d
}

// check counts one attempted operation and records it as failed when
// ok is false.
func (p *pass) check(ok bool, format string, args ...any) {
	p.res.Attempted++
	if ok {
		return
	}
	p.res.Failed++
	if len(p.res.Failures) < maxFailureNotes {
		p.res.Failures = append(p.res.Failures, fmt.Sprintf(format, args...))
	}
}

// uni: one core, busy dataflow, warmed caches. mcf's working set
// exceeds L2.
func (p *pass) runUni() error {
	return p.simCells([]string{"baseline", "no-recent-snoop", "replay-all"},
		[]string{"gzip", "vortex", "mcf"}, 1, p.b.uniWarm, p.b.uniWindow, 1)
}

// mp16: 16 cores in lock-step from empty caches, the regime where the
// quiescence probe finds idle windows (spin-mp skips about three
// quarters of its cycles) and coherence fills dominate.
func (p *pass) runMP16() error {
	return p.simCells([]string{"baseline", "no-recent-snoop"},
		[]string{"ocean", "jbb-mp", "spin-mp"}, 16, 0, p.b.mpWindow, p.b.mpPrograms)
}

// simCells runs every (machine, workload) cell on programs generated
// from their own seeds: a pass then averages over several programs, so
// its times depend less on what one seed happens to generate.
func (p *pass) simCells(machines, works []string, cores int, warm, window uint64, programs int) error {
	cell := 0
	for _, m := range machines {
		for _, w := range works {
			for k := 0; k < programs; k++ {
				if err := p.simCell(m, w, cores, warm, window, p.seed^uint64(cell)<<32); err != nil {
					return err
				}
				cell++
			}
		}
	}
	return nil
}

// simCell warms one machine, then times a window of committed
// instructions, with DMA on as in the §5.1 matrix.
func (p *pass) simCell(machine, work string, cores int, warm, window, seed uint64) error {
	mc, wl, err := lookup(machine, work)
	if err != nil {
		return err
	}
	opt := system.Options{Cores: cores, Seed: seed, DMAInterval: 4000, DMABurst: 2}
	var s *system.System
	p.setup += p.timed("system.New", 1, func() { s = system.New(mc, wl, opt) })
	p.timed("system.Advance", 1, func() { s.Advance(warm, opt) })
	s.ResetStats()
	d := p.window(s, opt, window)
	res := s.Result()
	p.ops += float64(res.Pipe.Committed)
	p.opsTime += d
	p.finishRun(s, res, fmt.Sprintf("%s/%s/%d seed=%d", machine, work, cores, seed), window)
	return nil
}

// window times one measured Advance to target committed instructions
// per core and records the fast-forward counts and heap activity of
// that window alone.
func (p *pass) window(s *system.System, opt system.Options, target uint64) time.Duration {
	ff0, cyc0 := s.FastForwardStats(), s.CycleNum
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := p.timed("system.Advance", 1, func() { s.Advance(target, opt) })
	runtime.ReadMemStats(&m1)
	ff := s.FastForwardStats()
	p.res.Counts["sys_cycles"] += uint64(s.CycleNum - cyc0)
	p.res.Counts["ff_windows"] += uint64(ff.Windows - ff0.Windows)
	p.res.Counts["ff_skipped"] += uint64(ff.SkippedCycles - ff0.SkippedCycles)
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return d
}

// finishRun checks that every core reached the window's target, folds
// the result into the digest and the counts, and, on a traced pass,
// probes the warmed cores.
func (p *pass) finishRun(s *system.System, res system.Result, label string, target uint64) {
	short := 0
	for _, c := range s.Cores {
		if c.Stats.Committed < target {
			short++
		}
	}
	p.check(short == 0, "%s: %d cores stopped short of %d committed instructions", label, short, target)
	fmt.Fprintf(p.sum, "%s cycles=%d %+v %s\n", label, res.Cycles, res.Pipe, res.Counters)
	p.addSystem(s, res)
	p.probeQuiescent(s)
}

// addSystem adds a finished window's public statistics to the pass's
// exact counts.
func (p *pass) addSystem(s *system.System, res system.Result) {
	c := p.res.Counts
	pp := res.Pipe
	sk := s.StageSkipStats()
	p.ipc = append(p.ipc, res.IPC)
	c["committed"] += pp.Committed
	c["core_cycles"] += uint64(pp.Cycles)
	c["skip_writeback"] += sk.Writeback
	c["skip_capture"] += sk.Capture
	c["skip_commit"] += sk.Commit
	c["skip_replay"] += sk.Replay
	c["skip_issue"] += sk.Issue
	c["squashed"] += pp.SquashedInstrs
	c["stall_rob"] += pp.StallROB
	c["stall_iq"] += pp.StallIQ
	c["stall_lq"] += pp.StallLQ
	c["stall_sq"] += pp.StallSQ
	c["rob_occupancy_sum"] += pp.ROBOccupancySum
	c["replays"] += pp.ReplayAccesses
	c["replay_loads_seen"] += res.Counters.Get("replay.loads_seen")
	c["replay_filtered"] += res.Counters.Get("replay.filtered")
	c["replay_mismatches"] += res.Counters.Get("replay.mismatches")
	c["lq_searches"] += res.Counters.Get("lq.searches")
	c["lq_entries"] += res.Counters.Get("lq.searched_entries")
	c["sq_searches"] += res.Counters.Get("sq.searches")
	for _, core := range s.Cores {
		hs := core.Hierarchy().Stats
		c["cache_reads"] += hs.Reads
		c["cache_l1d_hits"] += hs.L1DHits
		c["cache_mshr_merges"] += hs.MSHRMerges
		c["cache_l2_hits"] += hs.L2Hits
		c["cache_l3_hits"] += hs.L3Hits
		c["cache_remote_fills"] += hs.RemoteFills
	}
	c["bus_reads_remote"] += s.Bus.Stats.ReadsRemote
	c["bus_invalidations"] += s.Bus.Stats.Invalidations
	c["bus_filtered_probes"] += s.Bus.Stats.FilteredProbes
}

// quiescentSink keeps the probe results live so the calls are not
// optimised away.
var quiescentSink int64

// probeQuiescent times the public idle probe on every core of a warmed
// system. It is read-only, so traced and untraced passes stay equal.
func (p *pass) probeQuiescent(s *system.System) {
	if p.rec == nil {
		return
	}
	p.res.TracedOnlyS += p.timed("pipeline.Quiescent", p.b.probes*len(s.Cores), func() {
		for i := 0; i < p.b.probes; i++ {
			for _, c := range s.Cores {
				wake, _ := c.Quiescent()
				quiescentSink += wake
			}
		}
	}).Seconds()
}

// verify16: the litmus battery on a 16-core machine, one cell at a
// time, then one constraint-graph-checked simulation.
func (p *pass) runVerify16() error {
	tests, cfgs := litmus.Battery(), litmus.Configs()
	allowed := make([]*litmus.AllowedSet, len(tests))
	for i, t := range tests {
		p.setup += p.timed("litmus.Allowed", 1, func() { allowed[i] = litmus.Allowed(t) })
	}
	caught := map[string]bool{}
	for ti, t := range tests {
		for ci, cfg := range cfgs {
			var v litmus.Verdict
			base := litmus.CellSeed(p.seed, ti, ci)
			p.opsTime += p.timed("litmus.RunCell", 1, func() {
				v = litmus.RunCell(t, cfg, allowed[ti], p.b.litmusRuns, base, nil, 16)
			})
			p.ops += float64(p.b.litmusRuns)
			p.res.Counts["litmus_runs"] += uint64(v.Runs)
			p.res.Counts["litmus_incomplete"] += uint64(v.Incomplete)
			fmt.Fprintf(p.sum, "%v\n", v)
			if cfg.Sound {
				p.check(v.Pass(), "litmus %s/%s: %d forbidden, %d cycles, %d incomplete",
					v.Test, v.Config, v.Forbidden, v.Cycles, v.Incomplete)
			} else {
				caught[cfg.Name] = caught[cfg.Name] || v.Caught()
			}
		}
	}
	for _, cfg := range cfgs {
		if !cfg.Sound {
			p.check(caught[cfg.Name], "unsound config %s was not caught by any test", cfg.Name)
		}
	}

	// jbb-mp rather than ocean: its simulated IPC barely moves with the
	// seed, while a cold 16-core ocean run's swings by a quarter.
	mc, wl, err := lookup("no-recent-snoop", "jbb-mp")
	if err != nil {
		return err
	}
	for k := 0; k < p.b.scPrograms; k++ {
		seed := p.seed ^ uint64(k)<<32
		opt := system.Options{Cores: 16, Seed: seed, DMAInterval: 4000, DMABurst: 2, TrackConsistency: true}
		var s *system.System
		p.setup += p.timed("system.New", 1, func() { s = system.New(mc, wl, opt) })
		p.window(s, opt, p.b.scWindow)
		label := fmt.Sprintf("no-recent-snoop/jbb-mp/16 seed=%d (CheckSC)", seed)
		p.finishRun(s, s.Result(), label, p.b.scWindow)
		var cycle bool
		var nodes int
		p.timed("consistency.CheckSC", 1, func() {
			_, c, g := s.CheckSC()
			cycle, nodes = c, g.Nodes()
		})
		p.res.Counts["sc_nodes"] += uint64(nodes)
		p.check(!cycle, "%s: the constraint graph has a cycle", label)
		fmt.Fprintf(p.sum, "%s cycle=%t nodes=%d\n", label, cycle, nodes)
	}
	return nil
}

// farmSpec is the farm workload's job: a §5.1 matrix slice and a litmus
// slice, about 30 cells.
func (p *pass) farmSpec() farm.JobSpec {
	return farm.JobSpec{
		Matrix: &farm.MatrixSpec{
			Machines:  []string{"baseline", "no-recent-snoop"},
			Workloads: []string{"gzip", "vortex", "ocean"},
			UniInstr:  p.b.farmUniInstr, MPInstr: p.b.farmMPInstr,
			MPCores: p.b.farmMPCores, Samples: 1, Seed: p.seed,
		},
		Litmus: &farm.LitmusSpec{
			Tests: []string{"SB", "MP", "IRIW", "WRC"},
			Runs:  p.b.farmLitmusRuns, Seed: p.seed,
		},
	}
}

// farmSetups is how many servers a farm pass opens, one after another;
// the pass's set-up time is their median. One opening takes about a
// millisecond, and a single disk or scheduler stall can multiply that.
const farmSetups = 15

// farm: one closed-loop client over loopback HTTP to an in-process
// server with two executors, on an empty state directory. One cold job,
// then warm fresh=1 resubmissions of the same job.
func (p *pass) runFarm() error {
	dir, err := os.MkdirTemp("", "vbrbench-farm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var srv *farm.Server
	var cl *farm.Client
	setups := make([]float64, farmSetups)
	for i := range setups {
		if srv != nil {
			srv.Stop()
		}
		var d time.Duration
		if srv, cl, d, err = p.openServer(filepath.Join(dir, fmt.Sprintf("state%d", i))); err != nil {
			return err
		}
		setups[i] = d.Seconds()
	}
	defer srv.Stop()
	p.setup = time.Duration(median(setups) * float64(time.Second))

	spec := p.farmSpec()
	var cells []farm.Cell
	keys := []string{}
	p.timed("farm.Cells", 1, func() {
		if cells, err = spec.Cells(); err != nil {
			return
		}
		for _, c := range cells {
			k, kerr := c.Key()
			if kerr != nil {
				err = kerr
				return
			}
			keys = append(keys, k)
		}
	})
	if err != nil {
		return fmt.Errorf("expanding the job: %w", err)
	}

	t0 := time.Now()
	cold, err := p.submit(cl, spec, false)
	p.farm.coldS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("cold job: %w", err)
	}
	p.check(cold.State == farm.StateDone && cold.Digest != "" && cold.Executed == cold.Total,
		"cold job: state %s, executed %d of %d", cold.State, cold.Executed, cold.Total)
	fmt.Fprintf(p.sum, "farm digest=%s total=%d\n", cold.Digest, cold.Total)
	var results farm.JobResults
	p.timed("farm.Results", 1, func() { results, err = cl.Results(cold.ID) })
	if err != nil {
		return fmt.Errorf("fetching results: %w", err)
	}
	for _, r := range results.Results {
		if r.Kind != farm.KindMatrix {
			continue
		}
		var obs struct {
			IPC float64 `json:"ipc"`
		}
		if err := json.Unmarshal(r.Result, &obs); err != nil {
			return fmt.Errorf("decoding matrix result %d: %w", r.Index, err)
		}
		p.ipc = append(p.ipc, obs.IPC)
	}

	for i := 0; i < p.b.farmWarmJobs; i++ {
		t := time.Now()
		warm, err := p.submit(cl, spec, true)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("warm job %d: %w", i, err)
		}
		p.farm.warmMS = append(p.farm.warmMS, float64(d)/1e6)
		p.farm.hitCells += uint64(warm.Cached)
		p.farm.total += uint64(warm.Total)
		p.ops++
		p.opsTime += d
		p.check(warm.State == farm.StateDone && warm.Digest == cold.Digest && warm.Cached == warm.Total,
			"warm job %d: state %s, digest %.12s (cold %.12s), cached %d of %d",
			i, warm.State, warm.Digest, cold.Digest, warm.Cached, warm.Total)
	}
	p.res.Counts["farm_warm_cells"] += p.farm.total
	p.res.Counts["farm_warm_hits"] += p.farm.hitCells

	if p.rec == nil {
		return nil
	}
	t := time.Now()
	err = p.farmLayers(filepath.Join(dir, "scratch.jsonl"), cells, keys, results)
	p.res.TracedOnlyS += time.Since(t).Seconds()
	return err
}

// openServer opens a server on an empty state directory and waits until
// it answers /healthz, and returns how long that took.
func (p *pass) openServer(state string) (*farm.Server, *farm.Client, time.Duration, error) {
	t0 := time.Now()
	var srv *farm.Server
	var err error
	p.timed("farm.NewServer", 1, func() { srv, err = farm.NewServer(state, 2, nil) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("opening server: %w", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, nil, 0, fmt.Errorf("starting server: %w", err)
	}
	cl := &farm.Client{Base: "http://" + addr.String()}
	p.timed("farm.Health", 1, func() { _, err = cl.Health() })
	if err != nil {
		srv.Stop()
		return nil, nil, 0, fmt.Errorf("health check: %w", err)
	}
	return srv, cl, time.Since(t0), nil
}

// submit posts the job and waits for it to leave the running state.
func (p *pass) submit(cl *farm.Client, spec farm.JobSpec, fresh bool) (farm.JobStatus, error) {
	var st farm.JobStatus
	var err error
	p.timed("farm.Submit", 1, func() { st, err = cl.Submit(spec, fresh) })
	if err != nil || st.State != farm.StateRunning {
		return st, err
	}
	p.timed("farm.Wait", 1, func() { st, err = cl.Wait(st.ID, 2*time.Minute) })
	return st, err
}

// farmLayers runs the job's cells directly, one at a time, through
// Cell.Execute and a scratch cache, so the traced pass can time those
// layers; each result must equal the server's bytes.
func (p *pass) farmLayers(scratch string, cells []farm.Cell, keys []string, results farm.JobResults) error {
	cache, err := farm.OpenCache(scratch)
	if err != nil {
		return fmt.Errorf("opening scratch cache: %w", err)
	}
	defer cache.Close()
	for i, c := range cells {
		var raw json.RawMessage
		p.farm.execSum += p.timed("farm.Execute", 1, func() { raw, err = c.Execute() })
		if err != nil {
			return fmt.Errorf("executing cell %d: %w", i, err)
		}
		p.timed("farm.CachePut", 1, func() { err = cache.Put(keys[i], raw) })
		if err != nil {
			return fmt.Errorf("caching cell %d: %w", i, err)
		}
		var got json.RawMessage
		var hit bool
		p.timed("farm.CacheGet", 1, func() { hit = cache.Get(keys[i], &got) })
		p.check(hit && i < len(results.Results) && sameJSON(raw, got) && sameJSON(raw, results.Results[i].Result),
			"cell %d: direct execution differs from the cached or served result", i)
	}
	return nil
}

// sameJSON reports whether two JSON documents are equal once compacted.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// peakRSS returns this process's peak resident set in MB, from
// /proc/self/status. getrusage would not do: for a child started by
// vfork and exec, its maximum also counts the parent's pages from
// before the exec.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func lookup(machine, work string) (config.Machine, workload.Params, error) {
	mc, ok := config.ByName(machine)
	if !ok {
		return config.Machine{}, workload.Params{}, fmt.Errorf("unknown machine %q", machine)
	}
	wl, ok := workload.ByName(work)
	if !ok {
		return config.Machine{}, workload.Params{}, fmt.Errorf("unknown workload %q", work)
	}
	return mc, wl, nil
}

// perLayer computes the traced pass's per-layer metrics from its exact
// counts, its spans and its request timings.
func (p *pass) perLayer() map[string]float64 {
	c := p.res.Counts
	per := func(name string, den float64) float64 { return div(float64(c[name]), den) }
	ratio := func(num, den uint64) float64 { return div(float64(num), float64(den)) }
	instr := float64(c["committed"])
	kinstr := instr / 1000
	coreCycles := float64(c["core_cycles"])
	l1Miss := c["cache_reads"] - c["cache_l1d_hits"]
	l2Look := l1Miss - c["cache_mshr_merges"]
	l2Miss := l2Look - c["cache_l2_hits"]
	spans := p.rec.totals()
	meanSpan := func(name string, unit time.Duration) float64 {
		t := spans[name]
		return div(float64(t.total)/float64(unit), float64(t.n))
	}
	warm := sorted(p.farm.warmMS)
	execShare := 0.0
	if p.farm.coldS > 0 {
		execShare = p.farm.execSum.Seconds() / (2 * p.farm.coldS)
	}
	var gc runtime.MemStats
	runtime.ReadMemStats(&gc)

	return map[string]float64{
		"system.new_ms":                        meanSpan("system.New", time.Millisecond),
		"system.ff_skipped_frac":               per("ff_skipped", float64(c["sys_cycles"])),
		"system.ff_windows_per_kinstr":         per("ff_windows", kinstr),
		"pipeline.quiescent_ns":                meanSpan("pipeline.Quiescent", time.Nanosecond),
		"pipeline.skip_writeback_frac":         per("skip_writeback", coreCycles),
		"pipeline.skip_capture_frac":           per("skip_capture", coreCycles),
		"pipeline.skip_commit_frac":            per("skip_commit", coreCycles),
		"pipeline.skip_replay_frac":            per("skip_replay", coreCycles),
		"pipeline.skip_issue_frac":             per("skip_issue", coreCycles),
		"pipeline.squashed_per_kinstr":         per("squashed", kinstr),
		"pipeline.stall_rob_per_kinstr":        per("stall_rob", kinstr),
		"pipeline.stall_iq_per_kinstr":         per("stall_iq", kinstr),
		"pipeline.stall_lq_per_kinstr":         per("stall_lq", kinstr),
		"pipeline.stall_sq_per_kinstr":         per("stall_sq", kinstr),
		"pipeline.rob_occupancy":               per("rob_occupancy_sum", coreCycles),
		"core.replays_per_instr":               per("replays", instr),
		"core.filtered_frac":                   per("replay_filtered", float64(c["replay_loads_seen"])),
		"core.mismatches_per_kinstr":           per("replay_mismatches", kinstr),
		"lsq.lq_searches_per_instr":            per("lq_searches", instr),
		"lsq.lq_entries_per_search":            per("lq_entries", float64(c["lq_searches"])),
		"lsq.sq_searches_per_instr":            per("sq_searches", instr),
		"cache.l1d_miss_rate":                  ratio(l1Miss, c["cache_reads"]),
		"cache.l2_miss_rate":                   ratio(l2Miss, l2Look),
		"cache.l3_miss_rate":                   ratio(l2Miss-c["cache_l3_hits"], l2Miss),
		"cache.mshr_merges_per_kinstr":         per("cache_mshr_merges", kinstr),
		"cache.remote_fills_per_kinstr":        per("cache_remote_fills", kinstr),
		"coherence.reads_remote_per_kinstr":    per("bus_reads_remote", kinstr),
		"coherence.invalidations_per_kinstr":   per("bus_invalidations", kinstr),
		"coherence.filtered_probes_per_kinstr": per("bus_filtered_probes", kinstr),
		"consistency.check_s":                  meanSpan("consistency.CheckSC", time.Second),
		"consistency.ns_per_node":              div(float64(spans["consistency.CheckSC"].total), float64(c["sc_nodes"])),
		"litmus.allowed_ms":                    meanSpan("litmus.Allowed", time.Millisecond),
		"litmus.cell_ms":                       meanSpan("litmus.RunCell", time.Millisecond),
		"litmus.incomplete_frac":               per("litmus_incomplete", float64(c["litmus_runs"])),
		"farm.job_cold_s":                      p.farm.coldS,
		"farm.warm_p50_ms":                     percentile(warm, 0.50),
		"farm.warm_p95_ms":                     percentile(warm, 0.95),
		"farm.cells_keys_ms":                   meanSpan("farm.Cells", time.Millisecond),
		"farm.cell_execute_s_sum":              p.farm.execSum.Seconds(),
		"farm.exec_share":                      execShare,
		"farm.cache_put_ms":                    meanSpan("farm.CachePut", time.Millisecond),
		"farm.cache_get_us":                    meanSpan("farm.CacheGet", time.Microsecond),
		"farm.submit_ms":                       meanSpan("farm.Submit", time.Millisecond),
		"farm.health_rtt_ms":                   meanSpan("farm.Health", time.Millisecond),
		"farm.warm_hit_rate":                   ratio(p.farm.hitCells, p.farm.total),
		"host.allocs_per_kinstr":               div(float64(p.mallocs), kinstr),
		"host.alloc_bytes_per_instr":           div(float64(p.allocBytes), instr),
		"host.gc_count":                        float64(gc.NumGC),
	}
}
