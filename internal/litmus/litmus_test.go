package litmus

import (
	"testing"

	"vbmo/internal/config"
	"vbmo/internal/core"
	"vbmo/internal/system"
)

// TestOracleSB pins down the SC-allowed set of the store-buffering
// test: (0,0) is the one forbidden load outcome and both stores always
// land, so exactly three outcomes are allowed.
func TestOracleSB(t *testing.T) {
	sb, ok := ByName("SB")
	if !ok {
		t.Fatal("SB missing from battery")
	}
	as := Allowed(sb)
	want := []string{"r=0,1 m=1,1", "r=1,0 m=1,1", "r=1,1 m=1,1"}
	got := as.Keys()
	if len(got) != len(want) {
		t.Fatalf("SB allowed set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SB allowed set = %v, want %v", got, want)
		}
	}
	if as.Contains(Outcome{Loads: []uint64{0, 0}, Final: []uint64{1, 1}}) {
		t.Fatal("SB oracle admits the forbidden r=0,0 outcome")
	}
}

// TestOracleMP checks message passing: observing the flag set but the
// data stale is the sole forbidden load combination.
func TestOracleMP(t *testing.T) {
	mp, _ := ByName("MP")
	as := Allowed(mp)
	if as.Contains(Outcome{Loads: []uint64{1, 0}, Final: []uint64{1, 1}}) {
		t.Fatal("MP oracle admits the forbidden r=1,0 outcome")
	}
	for _, ok := range []string{"r=0,0 m=1,1", "r=0,1 m=1,1", "r=1,1 m=1,1"} {
		if _, found := as.Outcomes[ok]; !found {
			t.Fatalf("MP oracle missing allowed outcome %s (set %v)", ok, as.Keys())
		}
	}
}

// TestOracleFenceInert verifies fences do not change the SC-allowed
// set: the oracle already runs every interleaving atomically.
func TestOracleFenceInert(t *testing.T) {
	for _, name := range []string{"SB", "MP", "LB"} {
		plain, _ := ByName(name)
		fenced, _ := ByName(name + "+fences")
		a, b := Allowed(plain).Keys(), Allowed(fenced).Keys()
		if len(a) != len(b) {
			t.Fatalf("%s: fenced allowed set differs: %v vs %v", name, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: fenced allowed set differs: %v vs %v", name, a, b)
			}
		}
	}
}

// TestBatteryWellFormed asserts every battery member's canonical weak
// outcome is genuinely SC-forbidden (the predicate matches nothing in
// the allowed set) and that every allowed outcome's witness
// interleaving builds an acyclic constraint graph — the oracle and the
// graph checker cross-validating each other.
func TestBatteryWellFormed(t *testing.T) {
	for _, test := range Battery() {
		as := Allowed(test)
		if len(as.Outcomes) == 0 {
			t.Fatalf("%s: empty allowed set", test.Name)
		}
		if test.Weak == nil {
			t.Fatalf("%s: no weak predicate", test.Name)
		}
		if as.WeakAllowed() {
			t.Fatalf("%s: weak outcome is SC-allowed — malformed test", test.Name)
		}
		for _, key := range as.Keys() {
			g := as.WitnessGraph(key)
			if g == nil {
				t.Fatalf("%s: no witness for %s", test.Name, key)
			}
			if op, cyc := g.FindCycle(); cyc {
				t.Fatalf("%s: witness graph for SC outcome %s is cyclic at %+v",
					test.Name, key, op)
			}
		}
	}
}

// TestCompile checks the compiled shape: one section per thread with a
// distinct entry PC, every load PC mapped to a distinct observation
// slot, and address registers preloaded.
func TestCompile(t *testing.T) {
	iriw, _ := ByName("IRIW")
	c := Compile(iriw, []int{3, 0, 5, 1})
	if len(c.Inits) != 4 {
		t.Fatalf("IRIW compiled to %d cores, want 4", len(c.Inits))
	}
	seen := map[uint64]bool{}
	for i, st := range c.Inits {
		if st.PC == 0 || seen[st.PC] {
			t.Fatalf("core %d section PC %#x (zero or duplicate)", i, st.PC)
		}
		seen[st.PC] = true
		if st.Regs[rAddr0] != LocAddr(X) {
			t.Fatalf("core %d rAddr0 = %#x, want %#x", i, st.Regs[rAddr0], LocAddr(X))
		}
	}
	slots := map[int]bool{}
	for _, slot := range c.loadOf {
		if slots[slot] {
			t.Fatalf("duplicate observation slot %d", slot)
		}
		slots[slot] = true
	}
	if len(slots) != iriw.NumLoads() {
		t.Fatalf("%d load PCs mapped, want %d", len(slots), iriw.NumLoads())
	}
}

// TestCompileOnPadding checks the 16-way form: the test's threads keep
// their sections and the extra cores get distinct spin-only sections.
func TestCompileOnPadding(t *testing.T) {
	mp, _ := ByName("MP")
	c := CompileOn(mp, nil, 16)
	if len(c.Inits) != 16 {
		t.Fatalf("MP compiled onto %d cores, want 16", len(c.Inits))
	}
	base := Compile(mp, nil)
	for i, st := range base.Inits {
		if c.Inits[i].PC != st.PC {
			t.Fatalf("thread %d section moved: %#x vs %#x", i, c.Inits[i].PC, st.PC)
		}
	}
	seen := map[uint64]bool{}
	for i, st := range c.Inits {
		if st.PC == 0 || seen[st.PC] {
			t.Fatalf("core %d section PC %#x (zero or duplicate)", i, st.PC)
		}
		seen[st.PC] = true
	}
	if c.MinCommits != base.MinCommits {
		t.Fatalf("padding changed MinCommits: %d vs %d", c.MinCommits, base.MinCommits)
	}
	// At or below the thread count, CompileOn is exactly Compile.
	if n := len(CompileOn(mp, nil, 1).Inits); n != len(mp.Threads) {
		t.Fatalf("CompileOn(_, _, 1) compiled %d cores, want %d", n, len(mp.Threads))
	}
}

// TestSixteenWaySoundSB runs SB inside a 16-way SMP on every sound
// configuration: the spinning extra cores must not perturb soundness
// or completion.
func TestSixteenWaySoundSB(t *testing.T) {
	sb, _ := ByName("SB")
	as := Allowed(sb)
	for _, cfg := range Configs() {
		if !cfg.Sound {
			continue
		}
		for seed := uint64(0); seed < 4; seed++ {
			res := RunOneFaultOn(cfg.Machine, sb, as, seed, nil, nil, 16)
			if !res.OK {
				t.Fatalf("%s seed %d: incomplete 16-way run", cfg.Name, seed)
			}
			if !res.Allowed {
				t.Fatalf("%s seed %d: forbidden outcome %s", cfg.Name, seed, res.Key)
			}
			if res.Cycle {
				t.Fatalf("%s seed %d: constraint-graph cycle on allowed outcome %s",
					cfg.Name, seed, res.Key)
			}
		}
	}
}

// TestFastForwardVerdictParity runs one compiled test with and without
// the quiescence fast-forward and asserts the observed outcome, cycle
// count, and committed totals are bit-identical (the system-level
// equivalence contract, exercised on litmus code).
func TestFastForwardVerdictParity(t *testing.T) {
	mp, _ := ByName("MP")
	for _, cores := range []int{len(mp.Threads), 16} {
		comp := CompileOn(mp, nil, cores)
		run := func(noFF bool) (Outcome, bool, int64, uint64) {
			opt := system.Options{
				Cores: len(comp.Inits), Seed: 0,
				TrackConsistency: true, RecordCommits: true, MaxCycles: maxCycles,
				NoFastForward: noFF,
			}
			s := system.NewCustom(Configs()[0].Machine, comp.Prog, comp.Inits, opt)
			comp.InitImage(s)
			res := s.Run(comp.MinCommits, opt)
			out, ok := comp.Extract(s)
			return out, ok, res.Cycles, res.Pipe.Committed
		}
		outFF, okFF, cycFF, comFF := run(false)
		outPlain, okPlain, cycPlain, comPlain := run(true)
		if okFF != okPlain || cycFF != cycPlain || comFF != comPlain {
			t.Fatalf("%d cores: run shape diverged: ok %v/%v cycles %d/%d committed %d/%d",
				cores, okFF, okPlain, cycFF, cycPlain, comFF, comPlain)
		}
		if outFF.Key() != outPlain.Key() {
			t.Fatalf("%d cores: outcome diverged: %s vs %s", cores, outFF.Key(), outPlain.Key())
		}
	}
}

// TestStageSkipVerdictParity runs every battery member with the
// per-stage readiness layer on and off — at the test's natural core
// count and inside a 16-way SMP, under a perturbed seed so skew, warm
// cores, and DMA noise are in play — and asserts the observed outcome,
// cycle count, and committed totals are bit-identical. This is the
// litmus-level leg of the DESIGN.md §14 equivalence contract; the
// sweep's Perturb.NoStageSkip fold re-proves it continuously in bulk.
func TestStageSkipVerdictParity(t *testing.T) {
	for _, test := range Battery() {
		for _, cores := range []int{len(test.Threads), 16} {
			for _, seed := range []uint64{0, 7} {
				r := &rng{s: seed * 0x2545f4914f6cdd1d}
				var p Perturb
				if seed == 0 {
					p = Perturb{Skew: make([]int, len(test.Threads)), Warm: make([]bool, len(test.Threads))}
				} else {
					p = perturbFor(r, len(test.Threads))
				}
				comp := CompileOn(test, p.Skew, cores)
				run := func(noSkip bool) (Outcome, bool, int64, uint64) {
					opt := system.Options{
						Cores: len(comp.Inits), Seed: seed,
						TrackConsistency: true, RecordCommits: true, MaxCycles: maxCycles,
						DMAInterval: p.DMAInterval, DMABurst: 2,
						NoStageSkip: noSkip,
					}
					s := system.NewCustom(Configs()[0].Machine, comp.Prog, comp.Inits, opt)
					comp.InitImage(s)
					for c := range comp.Inits {
						if c < len(p.Warm) && p.Warm[c] {
							for _, addr := range comp.Addrs {
								s.Prewarm(c, addr)
							}
						}
					}
					res := s.Run(comp.MinCommits, opt)
					out, ok := comp.Extract(s)
					return out, ok, res.Cycles, res.Pipe.Committed
				}
				outOn, okOn, cycOn, comOn := run(false)
				outOff, okOff, cycOff, comOff := run(true)
				if okOn != okOff || cycOn != cycOff || comOn != comOff {
					t.Fatalf("%s/%d cores/seed %d: run shape diverged: ok %v/%v cycles %d/%d committed %d/%d",
						test.Name, cores, seed, okOn, okOff, cycOn, cycOff, comOn, comOff)
				}
				if outOn.Key() != outOff.Key() {
					t.Fatalf("%s/%d cores/seed %d: outcome diverged: %s vs %s",
						test.Name, cores, seed, outOn.Key(), outOff.Key())
				}
			}
		}
	}
}

// TestSoundConfigsSB runs SB — the sharpest discriminator — end to end
// on each sound machine across perturbed seeds: only SC-allowed
// outcomes, no constraint-graph cycles, every run complete.
func TestSoundConfigsSB(t *testing.T) {
	sb, _ := ByName("SB")
	as := Allowed(sb)
	for _, cfg := range Configs() {
		if !cfg.Sound {
			continue
		}
		for seed := uint64(0); seed < 12; seed++ {
			res := RunOne(cfg.Machine, sb, as, seed, nil)
			if !res.OK {
				t.Fatalf("%s seed %d: incomplete run", cfg.Name, seed)
			}
			if !res.Allowed {
				t.Fatalf("%s seed %d: forbidden outcome %s", cfg.Name, seed, res.Key)
			}
			if res.Cycle {
				t.Fatalf("%s seed %d: constraint-graph cycle on allowed outcome %s",
					cfg.Name, seed, res.Key)
			}
		}
	}
}

// TestCoherenceTestsEverywhere runs the coherence battery members on
// every config including the unsound one: NUS-alone breaks read
// atomicity across processors, but same-address ordering within the
// uniprocessor-visible coherence order must survive on all machines.
func TestCoherenceTestsEverywhere(t *testing.T) {
	for _, name := range []string{"CoRR", "CoWW"} {
		test, _ := ByName(name)
		as := Allowed(test)
		for _, cfg := range Configs() {
			for seed := uint64(0); seed < 6; seed++ {
				res := RunOne(cfg.Machine, test, as, seed, nil)
				if !res.OK {
					t.Fatalf("%s/%s seed %d: incomplete run", name, cfg.Name, seed)
				}
				if cfg.Sound && !res.Allowed {
					t.Fatalf("%s/%s seed %d: forbidden outcome %s",
						name, cfg.Name, seed, res.Key)
				}
			}
		}
	}
}

// TestNUSOnlyCaught demonstrates the paper's §3.3 argument as an
// executable fact: the NUS-alone filter lets premature loads commit
// unverified on a multiprocessor, and the SB battery member catches it
// — the forbidden r=0,0 outcome (or a graph cycle) shows up within a
// few perturbed seeds.
func TestNUSOnlyCaught(t *testing.T) {
	sb, _ := ByName("SB")
	as := Allowed(sb)
	cfg, ok := ConfigByName("nus-only")
	if !ok || cfg.Sound {
		t.Fatal("nus-only config missing or marked sound")
	}
	caught := 0
	for seed := uint64(0); seed < 20; seed++ {
		res := RunOne(cfg.Machine, sb, as, seed, nil)
		if res.OK && (!res.Allowed || res.Cycle) {
			caught++
			if !res.Allowed && !res.Cycle {
				t.Errorf("seed %d: forbidden outcome %s but graph acyclic — checker missed it",
					seed, res.Key)
			}
		}
	}
	if caught == 0 {
		t.Fatal("NUS-alone never produced a forbidden outcome on SB in 20 seeds")
	}
	t.Logf("NUS-alone caught on %d/20 seeds", caught)
}

// TestSweepSmall exercises the pooled sweep end to end on a small
// matrix and checks the summary logic.
func TestSweepSmall(t *testing.T) {
	sb, _ := ByName("SB")
	mpf, _ := ByName("MP+fences")
	cfgs := []Config{
		{Name: "baseline", Machine: tune(config.Baseline()), Sound: true},
		{Name: "nus-only", Machine: tune(config.Replay(core.NUSOnly)), Sound: false},
	}
	vs, err := Sweep(SweepOptions{
		Tests:   []*Test{sb, mpf},
		Configs: cfgs,
		Runs:    15,
		Workers: 2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d verdicts, want 4", len(vs))
	}
	sum := Summarize(vs)
	if !sum.SoundOK {
		t.Fatalf("baseline failed: %v", sum.FailedCells)
	}
	if !sum.UnsoundCaught {
		t.Fatal("nus-only not caught by SB in the small sweep")
	}
	for _, v := range vs {
		if v.Incomplete > 0 {
			t.Fatalf("%s/%s: %d incomplete runs", v.Test, v.Config, v.Incomplete)
		}
		total := 0
		for _, n := range v.Histogram {
			total += n
		}
		if total != v.Runs {
			t.Fatalf("%s/%s: histogram covers %d of %d runs", v.Test, v.Config, total, v.Runs)
		}
	}
}
