package system

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/prog"
	"vbmo/internal/workload"
)

// oracle runs the functional reference executor over the same program,
// image seed and initial state as the system, returning n committed
// records.
func oracle(work workload.Params, seed uint64, n int) []prog.Committed {
	p := workload.Generate(work, seed)
	im := prog.NewImage(seed)
	ex := prog.NewExecutor(p, im, workload.InitState(work, 0, seed))
	return ex.Run(n)
}

// tapCommits taps every core's CommitHook and returns the streams the
// taps fill as the machine runs: element c receives core c's committed
// instructions. A Reset clears the taps.
func tapCommits(s *System) [][]prog.Committed {
	streams := make([][]prog.Committed, len(s.Cores))
	for c, core := range s.Cores {
		core.CommitHook = func(r prog.Committed) { streams[c] = append(streams[c], r) }
	}
	return streams
}

// assertMatchesOracle runs machine cfg on the workload and checks the
// committed stream is identical to the in-order reference execution.
func assertMatchesOracle(t *testing.T, cfg config.Machine, workName string, n uint64) {
	t.Helper()
	work, ok := workload.ByName(workName)
	if !ok {
		t.Fatalf("no workload %s", workName)
	}
	opt := Options{Cores: 1, Seed: 12345}
	s := New(cfg, work, opt)
	commits := tapCommits(s)
	res := s.Run(n, opt)
	if res.Pipe.Committed < n {
		t.Fatalf("%s/%s: committed only %d of %d (cycles=%d)",
			cfg.Name, workName, res.Pipe.Committed, n, res.Cycles)
	}
	want := oracle(work, 12345, int(n))
	got := commits[0]
	for i := range want {
		if i >= len(got) {
			t.Fatalf("committed stream too short at %d", i)
		}
		g, w := got[i], want[i]
		if g.PC != w.PC || g.Op != w.Op || g.Result != w.Result ||
			g.Addr != w.Addr || g.Taken != w.Taken {
			t.Fatalf("%s/%s: commit %d differs:\n got %+v\nwant %+v",
				cfg.Name, workName, i, g, w)
		}
	}
	// Architectural register state must match too (the pipeline may
	// overshoot the target by part of a commit group; compare against
	// an oracle run of the exact committed count).
	ex := prog.NewExecutor(workload.Generate(work, 12345), prog.NewImage(12345),
		workload.InitState(work, 0, 12345))
	ex.Run(int(res.Pipe.Committed))
	arch := s.Cores[0].ArchState()
	for r := 1; r < 64; r++ {
		if arch.Regs[r] != ex.State.Regs[r] {
			t.Fatalf("%s/%s: r%d = %#x, oracle %#x",
				cfg.Name, workName, r, arch.Regs[r], ex.State.Regs[r])
		}
	}
}

func TestBaselineMatchesOracle(t *testing.T) {
	for _, w := range []string{"gzip", "vortex", "mcf"} {
		assertMatchesOracle(t, config.Baseline(), w, 8000)
	}
}

func TestReplayAllMatchesOracle(t *testing.T) {
	for _, w := range []string{"gzip", "vortex"} {
		assertMatchesOracle(t, config.Replay(core.ReplayAll), w, 8000)
	}
}

func TestReplayFiltersMatchOracle(t *testing.T) {
	for _, f := range []core.Filter{core.NoReorder, core.NoRecentMiss, core.NoRecentSnoop, core.NUSOnly} {
		assertMatchesOracle(t, config.Replay(f), "vortex", 6000)
	}
}

func TestConstrainedLQMatchesOracle(t *testing.T) {
	assertMatchesOracle(t, config.ConstrainedBaseline(16), "gzip", 6000)
}

func TestMultiprocessorSmoke(t *testing.T) {
	work, _ := workload.ByName("radiosity")
	opt := Options{Cores: 2, Seed: 7, DMAInterval: 5000}
	s := New(config.Baseline(), work, opt)
	res := s.Run(3000, opt)
	if res.Pipe.Committed < 6000 {
		t.Fatalf("MP run under-committed: %+v", res)
	}
	if res.Cores != 2 {
		t.Errorf("Cores = %d", res.Cores)
	}
}

func TestMultiprocessorReplaySmoke(t *testing.T) {
	work, _ := workload.ByName("radiosity")
	opt := Options{Cores: 2, Seed: 7, DMAInterval: 5000}
	s := New(config.Replay(core.NoRecentSnoop), work, opt)
	res := s.Run(3000, opt)
	if res.Pipe.Committed < 6000 {
		t.Fatalf("MP replay run under-committed: %+v", res)
	}
	if res.Counters.Get("replay.loads_seen") == 0 {
		t.Error("replay engine saw no loads")
	}
}

func TestInsulatedAndHybridMatchOracle(t *testing.T) {
	// The Alpha-style insulated and Power4-style hybrid load queues are
	// drop-in uniprocessor baselines; their committed streams must be
	// oracle-exact too.
	assertMatchesOracle(t, config.InsulatedBaseline(), "vortex", 6000)
	assertMatchesOracle(t, config.HybridBaseline(), "vortex", 6000)
}

func TestHybridMPSmoke(t *testing.T) {
	work, _ := workload.ByName("radiosity")
	opt := Options{Cores: 2, Seed: 9, DMAInterval: 5000}
	s := New(config.HybridBaseline(), work, opt)
	res := s.Run(3000, opt)
	if res.Pipe.Committed < 6000 {
		t.Fatalf("hybrid MP under-committed: %+v", res)
	}
}

func TestBloomBaselineMatchesOracleAndFilters(t *testing.T) {
	// The Bloom-filtered load queue is an energy optimization: it must
	// not change behaviour (oracle-exact) and must avoid a substantial
	// fraction of CAM searches.
	assertMatchesOracle(t, config.BloomBaseline(), "vortex", 6000)

	work, _ := workload.ByName("vortex")
	opt := Options{Cores: 1, Seed: 12345}
	plain := New(config.Baseline(), work, opt)
	rp := plain.Run(6000, opt)
	blm := New(config.BloomBaseline(), work, opt)
	rb := blm.Run(6000, opt)

	filtered := rb.Counters.Get("lq.bloom_filtered")
	if filtered == 0 {
		t.Fatal("bloom filter avoided no searches")
	}
	// Searches avoided + performed ≈ plain baseline's searches.
	total := rb.Counters.Get("lq.searches") + filtered
	if total < rp.Counters.Get("lq.searches")*9/10 {
		t.Errorf("search accounting off: bloom %d+%d vs plain %d",
			rb.Counters.Get("lq.searches"), filtered, rp.Counters.Get("lq.searches"))
	}
	// And performance is unchanged (same committed stream, same cycles
	// modulo nothing — the filter is timing-neutral in this model).
	if rb.Cycles != rp.Cycles {
		t.Errorf("bloom filter changed timing: %d vs %d cycles", rb.Cycles, rp.Cycles)
	}
}

func TestHierSQBaselineMatchesOracle(t *testing.T) {
	// Akkary et al.'s two-level store queue changes forwarding latency,
	// never values: oracle-exact, with level-two probes mostly
	// filtered.
	assertMatchesOracle(t, config.HierSQBaseline(), "vortex", 6000)
	work, _ := workload.ByName("vortex")
	opt := Options{Cores: 1, Seed: 12345}
	s := New(config.HierSQBaseline(), work, opt)
	res := s.Run(6000, opt)
	if res.Counters.Get("sq.l2_filtered") == 0 {
		t.Error("membership filter never skipped a level-two probe")
	}
}

func TestValuePredictionMatchesOracle(t *testing.T) {
	// Value-predicted loads feed consumers early; the replay stage
	// verifies every prediction, so the committed stream stays
	// oracle-exact even through mispredictions.
	cfg := config.ReplayVP(core.NoRecentSnoop)
	assertMatchesOracle(t, cfg, "gzip", 8000)

	work, _ := workload.ByName("gzip")
	opt := Options{Cores: 1, Seed: 12345}
	s := New(cfg, work, opt)
	res := s.Run(8000, opt)
	if res.Counters.Get("vpred.predictions") == 0 {
		t.Error("no value predictions issued")
	}
	if res.Pipe.ValuePredictedLoads == 0 {
		t.Error("no loads marked value-predicted")
	}
	// Every predicted load that commits must have replayed (the
	// filters may not skip them): replays >= committed predicted loads.
	if res.Pipe.ReplayAccesses < res.Pipe.ValuePredictedCommitted {
		t.Errorf("replays %d < committed value-predicted loads %d: verification skipped",
			res.Pipe.ReplayAccesses, res.Pipe.ValuePredictedCommitted)
	}
	if res.Pipe.ValuePredictedCommitted == 0 {
		t.Error("no predicted loads committed")
	}
}

func TestValuePredictionMPStillSC(t *testing.T) {
	// The Martin et al. hazard: naive value prediction can violate the
	// consistency model. Replay-verified prediction must not — the
	// constraint graph stays acyclic even under contention.
	work, _ := workload.ByName("jbb-mp")
	work.SharedFrac = 0.5
	work.HotFrac = 0.9
	work.FalseSharing = 0.0
	opt := Options{Cores: 4, Seed: 31, TrackConsistency: true}
	s := New(config.ReplayVP(core.NoRecentSnoop), work, opt)
	res := s.Run(4000, opt)
	if res.Counters.Get("vpred.predictions") == 0 {
		t.Skip("no predictions issued under this seed")
	}
	if _, cyc, _ := s.CheckSC(); cyc {
		t.Error("replay-verified value prediction violated sequential consistency")
	}
}

func TestSystemDeterminism(t *testing.T) {
	// Identical seeds must produce bit-identical results — the whole
	// simulator is deterministic (required for the Alameldeen–Wood
	// sampling methodology to mean anything).
	run := func() Result {
		work, _ := workload.ByName("radiosity")
		opt := Options{Cores: 4, Seed: 77, DMAInterval: 4000, DMABurst: 2}
		s := New(config.Replay(core.NoRecentSnoop), work, opt)
		return s.Run(3000, opt)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Pipe != b.Pipe {
		t.Errorf("nondeterministic simulation:\n %+v\nvs %+v", a.Pipe, b.Pipe)
	}
	if a.Counters.String() != b.Counters.String() {
		t.Error("nondeterministic counters")
	}
}

func TestSeedsChangeExecutions(t *testing.T) {
	run := func(seed uint64) int64 {
		work, _ := workload.ByName("gcc")
		opt := Options{Cores: 1, Seed: seed}
		s := New(config.Baseline(), work, opt)
		return s.Run(4000, opt).Cycles
	}
	if run(1) == run(2) && run(2) == run(3) {
		t.Error("three different seeds produced identical cycle counts")
	}
}

func TestSCSweepAcrossSoundConfigs(t *testing.T) {
	// A broader soundness sweep: every sound configuration across
	// several seeds and two MP workloads must verify SC.
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	configs := []config.Machine{
		config.Baseline(),
		config.Replay(core.ReplayAll),
		config.Replay(core.NoRecentSnoop),
		config.Replay(core.NoRecentMiss),
		config.ReplayVP(core.NoRecentMiss),
	}
	for _, name := range []string{"radiosity", "ocean"} {
		work, _ := workload.ByName(name)
		work.SharedFrac = 0.4
		work.HotFrac = 0.8
		work.FalseSharing = 0.2
		for _, cfg := range configs {
			for seed := uint64(1); seed <= 2; seed++ {
				opt := Options{Cores: 4, Seed: seed, TrackConsistency: true,
					DMAInterval: 4000, DMABurst: 2}
				s := New(cfg, work, opt)
				s.Run(2500, opt)
				if op, cyc, _ := s.CheckSC(); cyc {
					t.Errorf("%s/%s seed %d: SC violation at proc %d op %d addr %#x",
						cfg.Name, name, seed, op.Proc, op.Index, op.Addr)
				}
			}
		}
	}
}

func TestHybridInsulatedAreCoherentNotSC(t *testing.T) {
	// The paper (§2.1): insulated and hybrid load queues order only
	// same-address accesses — what weakly-ordered ISAs (Alpha, PowerPC)
	// require. Under a sequential-consistency lens they can violate;
	// under the per-location coherence lens they must not.
	work, _ := workload.ByName("jbb-mp")
	work.SharedFrac = 0.5
	work.HotFrac = 0.9
	work.FalseSharing = 0.0
	scViolations := 0
	for _, cfg := range []config.Machine{config.HybridBaseline(), config.InsulatedBaseline()} {
		for seed := uint64(1); seed <= 3; seed++ {
			opt := Options{Cores: 4, Seed: seed, TrackConsistency: true}
			s := New(cfg, work, opt)
			s.Run(3000, opt)
			if op, cyc, _ := s.CheckCoherence(); cyc {
				t.Errorf("%s seed %d: coherence violation at proc %d op %d addr %#x",
					cfg.Name, seed, op.Proc, op.Index, op.Addr)
			}
			if _, cyc, _ := s.CheckSC(); cyc {
				scViolations++
			}
		}
	}
	if scViolations == 0 {
		t.Log("no SC violation surfaced (contention-dependent); coherence verified")
	} else {
		t.Logf("%d SC violations observed — same-address-only ordering, as §2.1 describes", scViolations)
	}
}
