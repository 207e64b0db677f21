package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vbmo/internal/config"
	"vbmo/internal/fault"
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
		runOptions: runOptions{cores: 1, insts: 3000}, baseSeed: 1, seeds: 6, cellTimeout: time.Microsecond,
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

// TestSeedSweepResume tears a 4-seed journal after two records and
// resumes it: the two journaled seeds are replayed, the other two run,
// and every record equals an uninterrupted sweep's but for its elapsed
// time. A longer sweep on the same journal replays all four and runs
// the rest; a sweep with a different -n replays nothing.
func TestSeedSweepResume(t *testing.T) {
	cfg, _ := config.ByName("no-recent-snoop")
	work, _ := workload.ByName("gzip")
	o := sweepOptions{runOptions: runOptions{cores: 1, insts: 3000}, baseSeed: 1, seeds: 4}
	sweep := func(o sweepOptions) seedSweep {
		t.Helper()
		sw, err := sweepSeeds(cfg, work, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.failures) != 0 {
			t.Fatalf("failures: %v", sw.failures)
		}
		for i := range sw.runs {
			sw.runs[i].Out.ElapsedSec = 0
		}
		return sw
	}
	clean := sweep(o)

	o.journal = filepath.Join(t.TempDir(), "seeds.jsonl")
	sweep(o)
	raw, err := os.ReadFile(o.journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("journal holds %d lines, want a header and 4 records", len(lines))
	}
	torn := append(bytes.Join(lines[:3], nil), `{"key":"torn","result":{"out`...)
	if err := os.WriteFile(o.journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := sweep(o)
	if resumed.resumed != 2 {
		t.Fatalf("resumed %d seeds from a journal holding 2", resumed.resumed)
	}
	if !reflect.DeepEqual(resumed.runs, clean.runs) {
		t.Fatalf("resumed records differ from an uninterrupted sweep's:\n resumed %+v\n clean   %+v",
			resumed.runs, clean.runs)
	}

	o.seeds = 6
	longer := sweep(o)
	if longer.resumed != 4 || !reflect.DeepEqual(longer.runs[:4], clean.runs) {
		t.Fatalf("-seeds 6 on a 4-seed journal resumed %d seeds (want 4) or changed their records", longer.resumed)
	}

	o.insts = 4000
	if other := sweep(o); other.resumed != 0 {
		t.Fatalf("a sweep with a different -n replayed %d seeds", other.resumed)
	}
}

// TestSingleRunIsSweepCell requires a fault-injected single run at seed
// S to print the same -json record, but for its elapsed time, as the
// seed-S rows of the sweeps that start at S-1 and at S: a run's fault
// stream depends only on the fault seed and its own seed, not on where
// a sweep started.
func TestSingleRunIsSweepCell(t *testing.T) {
	cfg, _ := config.ByName("replay-all")
	work, _ := workload.ByName("gzip")
	o := runOptions{cores: 1, insts: 5000,
		fault: &fault.Config{Kinds: []fault.Kind{fault.LoadValue}, Rate: 0.01}}
	single, _ := runSeed(cfg, work, o, 5)
	single.Out.ElapsedSec = 0
	if single.Out.Faults == nil || single.Out.Faults.Injected == 0 {
		t.Fatalf("no fault injected at rate 0.01: %+v", single.Out.Faults)
	}
	for _, base := range []uint64{4, 5} {
		sw, err := sweepSeeds(cfg, work, sweepOptions{runOptions: o, baseSeed: base, seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		row := sw.runs[5-base]
		row.Out.ElapsedSec = 0
		if !reflect.DeepEqual(row, single) {
			t.Errorf("seed 5 row of -seed %d -seeds 2 differs from the single run:\n row    %+v\n single %+v",
				base, row.Out, single.Out)
		}
	}
}
