package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// mustRun fails the test on a matrix infrastructure error (journal
// open/fingerprint problems; impossible without a Checkpoint).
func mustRun(t *testing.T, cfg Config, machines []string) *Matrix {
	t.Helper()
	m, err := Run(cfg, machines)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyCfg() Config {
	return Config{
		UniInstr:  6000,
		MPInstr:   1500,
		MPCores:   2,
		Samples:   1,
		Seed:      42,
		Workloads: []string{"gzip", "vortex", "radiosity"},
	}
}

func TestMatrixShapeAndInvariants(t *testing.T) {
	cfg := tinyCfg()
	m := mustRun(t, cfg, MachineNames)
	for _, mc := range MachineNames {
		for _, w := range cfg.Workloads {
			pt := m.Get(mc, w)
			if pt == nil || pt.IPC.N() == 0 {
				t.Fatalf("missing point %s/%s", mc, w)
			}
			if pt.IPC.Mean() <= 0 {
				t.Errorf("%s/%s: nonpositive IPC", mc, w)
			}
			if pt.Committed.Mean() <= 0 {
				t.Errorf("%s/%s: no commits", mc, w)
			}
		}
	}
	// The baseline never replays; every replay machine replays ≥ 0 and
	// replay-all replays the most.
	for _, w := range cfg.Workloads {
		base := m.Get("baseline", w)
		if base.Replays.Mean() != 0 {
			t.Errorf("%s: baseline performed replays", w)
		}
		all := m.Get("replay-all", w).Replays.Mean()
		for _, mc := range []string{"no-reorder", "no-recent-miss", "no-recent-snoop"} {
			if got := m.Get(mc, w).Replays.Mean(); got > all {
				t.Errorf("%s/%s: filtered config replays more (%.0f) than replay-all (%.0f)",
					mc, w, got, all)
			}
		}
		// NRS+NUS replays at least the NUS-flagged fraction but far
		// fewer than replay-all (the filters actually filter).
		nrs := m.Get("no-recent-snoop", w).Replays.Mean()
		if nrs > all*0.6 {
			t.Errorf("%s: NRS filtered too little: %.0f of %.0f", w, nrs, all)
		}
	}
	if m.Get("nosuch", "gzip") != nil || m.Get("baseline", "nosuch") != nil {
		t.Error("Get of unknown keys must return nil")
	}
}

func TestFigureRenderers(t *testing.T) {
	cfg := tinyCfg()
	m := mustRun(t, cfg, MachineNames)
	var b bytes.Buffer
	Figure5(&b, m)
	Figure6(&b, m)
	Figure7(&b, m)
	SquashStats(&b, m)
	Power(&b, m)
	Tables(&b)
	out := b.String()
	for _, frag := range []string{
		"Figure 5", "Figure 6", "Figure 7",
		"geomean", "replays per committed instruction",
		"squash elimination", "power model", "ΔEnergy",
		"Table 1", "Table 2",
		"gzip", "vortex", "radiosity",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered output missing %q", frag)
		}
	}
}

func TestFigure8Renderer(t *testing.T) {
	cfg := tinyCfg()
	cfg.Workloads = []string{"gzip"}
	var b bytes.Buffer
	Figure8(&b, cfg)
	out := b.String()
	if !strings.Contains(out, "vs lq32") || !strings.Contains(out, "vs lq16") {
		t.Errorf("figure 8 output incomplete:\n%s", out)
	}
}

func TestWorkloadSubsetFilter(t *testing.T) {
	cfg := tinyCfg()
	cfg.Workloads = []string{"gzip"}
	m := mustRun(t, cfg, []string{"baseline"})
	if m.Get("baseline", "gzip") == nil {
		t.Fatal("selected workload missing")
	}
	if pt := m.Get("baseline", "vortex"); pt != nil && pt.IPC.N() > 0 {
		t.Error("unselected workload was run")
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	cfg := tinyCfg()
	cfg.Workloads = []string{"gzip"}
	cfg.Workers = 1
	a := mustRun(t, cfg, []string{"baseline"})
	cfg.Workers = 4
	b := mustRun(t, cfg, []string{"baseline"})
	ia := a.Get("baseline", "gzip").IPC.Mean()
	ib := b.Get("baseline", "gzip").IPC.Mean()
	if ia != ib {
		t.Errorf("parallel execution changed results: %v vs %v", ia, ib)
	}
}

func TestUnknownMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown machine should panic")
		}
	}()
	machineFor("bogus")
}

func TestRelatedWorkRenderer(t *testing.T) {
	cfg := tinyCfg()
	cfg.Workloads = []string{"vortex"}
	var b bytes.Buffer
	RelatedWork(&b, cfg)
	out := b.String()
	for _, frag := range []string{"bloom-lq", "hier-sq", "insulated", "hybrid", "replay-nrs", "replay-vpred", "geomean"} {
		if !strings.Contains(out, frag) {
			t.Errorf("related-work output missing %q", frag)
		}
	}
}
