package main

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"vbmo/internal/fault"
	"vbmo/internal/litmus"
)

// TestExitContract drives synthetic sweeps through the judgement and
// the exit contract: sabotage that interfered and was flagged passes,
// sabotage that interfered unflagged fails, sabotage that never
// interfered is held to the plain battery's contract, delays are
// informational, and a cell that did not run always fails.
func TestExitContract(t *testing.T) {
	cell := func(v litmus.Verdict) litmus.Verdict {
		v.Test, v.Config, v.Sound, v.Runs = "SB", "nrs+nus", true, 10
		return v
	}
	plan := func(k fault.Kind) *fault.Config { return &fault.Config{Kinds: []fault.Kind{k}, Rate: 1} }
	for _, c := range []struct {
		name string
		plan *fault.Config
		cell litmus.Verdict
		want bool
	}{
		{"caught", plan(fault.SuppressWindow), litmus.Verdict{FaultSuppressed: 30, Forbidden: 2}, false},
		{"interfered but never flagged", plan(fault.DropSnoop), litmus.Verdict{FaultDropped: 30}, true},
		{"no interference", plan(fault.SuppressNUS), litmus.Verdict{}, false},
		{"no interference, sound cell fails", plan(fault.SuppressNUS), litmus.Verdict{Cycles: 1}, true},
		{"informational", plan(fault.DelaySnoop), litmus.Verdict{FaultDelayed: 30, Cycles: 1}, false},
		{"no plan", nil, litmus.Verdict{}, false},
		{"no plan, sound cell fails", nil, litmus.Verdict{Forbidden: 1}, true},
		{"cell did not run", plan(fault.SuppressWindow), litmus.Verdict{FaultSuppressed: 30, Forbidden: 2, Error: "timeout"}, true},
	} {
		vs := []litmus.Verdict{cell(c.cell)}
		got := failed(litmus.Summarize(vs), c.plan.Judge(litmus.Tally(vs)), true)
		if got != c.want {
			t.Errorf("%s: failed = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestJSONCarriesJudgement sweeps SB on nrs+nus plain and under
// suppress-window sabotage, as CI's litmus job does, and decodes each
// -json report: the plain one keeps its five keys, and the sabotaged
// one adds the plan's six totals and the verdict the exit code follows.
func TestJSONCarriesJudgement(t *testing.T) {
	sb, _ := litmus.ByName("SB")
	cfg, _ := litmus.ConfigByName("nrs+nus")
	plain := []string{"elapsed_sec", "runs", "seed", "summary", "verdicts"}
	for _, c := range []struct {
		fault   string
		keys    []string
		verdict string
	}{
		{"", plain, ""},
		{"suppress-window", append([]string{"faults", "verdict"}, plain...), "CAUGHT"},
	} {
		fc, err := fault.FromFlags(c.fault, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := litmus.Sweep(litmus.SweepOptions{Tests: []*litmus.Test{sb}, Configs: []litmus.Config{cfg},
			Runs: 150, Workers: 1, Seed: 1, Fault: fc})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(newReport(150, 1, time.Second, vs, litmus.Summarize(vs), fc))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		slices.Sort(c.keys)
		if !reflect.DeepEqual(keys, c.keys) {
			t.Errorf("-fault %q: keys %v, want %v", c.fault, keys, c.keys)
		}
		if fc == nil {
			continue
		}
		var verdict string
		var totals map[string]uint64
		if err := json.Unmarshal(out["verdict"], &verdict); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(out["faults"], &totals); err != nil {
			t.Fatal(err)
		}
		if verdict != c.verdict {
			t.Errorf("-fault %q: verdict %q, want %q", c.fault, verdict, c.verdict)
		}
		st, _ := litmus.Tally(vs)
		want := map[string]uint64{"injected": st.Injected, "detected": st.Detected, "missed": st.Missed,
			"dropped": st.Dropped, "delayed": st.Delayed, "suppressed": st.Suppressed}
		if !reflect.DeepEqual(totals, want) || totals["suppressed"] == 0 {
			t.Errorf("-fault %q: totals %v, want %v with suppressions", c.fault, totals, want)
		}
	}
}
