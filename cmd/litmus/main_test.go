package main

import (
	"testing"

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
