package main

import (
	"runtime"
	"testing"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/workload"
)

// TestSweepKeepsAbandonedSeedsFailed runs a -seeds sweep whose attempts
// all overrun their deadline, waits until the abandoned attempts have
// finished as well, and requires every failed seed to still carry its
// error: an attempt that finishes after the sweep gave up on it must
// not replace the seed's failure record with its own run.
func TestSweepKeepsAbandonedSeedsFailed(t *testing.T) {
	cfg, _ := config.ByName("baseline")
	work, _ := workload.ByName("gzip")
	before := runtime.NumGoroutine()
	sw, err := sweepSeeds(cfg, work, sweepOptions{
		cores: 1, insts: 3000, baseSeed: 1, seeds: 6, cellTimeout: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatal("abandoned attempts still running after a minute")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(sw.failures) == 0 {
		t.Fatal("no attempt overran its 1µs deadline")
	}
	for i, r := range sw.runs {
		if sw.failed[i] && (r.Out.Error == "" || r.Out.Committed != 0) {
			t.Errorf("seed %d failed, but its record is the abandoned run's: %+v", r.Out.Seed, r.Out)
		}
	}
}
