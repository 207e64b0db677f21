// Command vbrworker is a farm worker process: it pulls batched sweep
// cells from a vbrfarm server over the lease/heartbeat/complete HTTP
// protocol, executes them through the same deterministic simulation
// paths the server's local executors use, and uploads each result
// before acknowledging. Workers are disposable by design — they hold no
// durable state, heartbeat while they compute, and a killed or wedged
// worker simply lets its leases expire so the server re-queues the
// cells. Run one worker per spare machine or container:
//
//	vbrworker -addr http://farmhost:8373 -id worker-a -batch 8
//
// The worker refuses to serve a farm built from different code (the
// content-addressed cache keys embed the code-version fingerprint), and
// survives server restarts and transient partitions with bounded
// exponential backoff.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vbmo/internal/exitcode"
	"vbmo/internal/farm"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8373", "farm server base URL")
		id        = flag.String("id", "", "worker identity (default worker-<hostname>-<pid>)")
		batch     = flag.Int("batch", 4, "cells to check out per lease round trip")
		heartbeat = flag.Duration("heartbeat", 0, "lease renewal interval (default lease TTL / 3)")
		poll      = flag.Duration("poll", 250*time.Millisecond, "idle poll interval (backs off exponentially)")
		maxPoll   = flag.Duration("max-poll", 5*time.Second, "idle/unavailable backoff cap")
		idleExit  = flag.Duration("idle-exit", 0, "exit cleanly after this long without work (0 = run until signalled)")
		execDelay = flag.Duration("exec-delay", 0, "pause before each cell (chaos/test knob; keep 0 in production)")
		quiet     = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "unknown"
		}
		*id = fmt.Sprintf("worker-%s-%d", host, os.Getpid())
	}

	w := &farm.Worker{
		Client:    &farm.Client{Base: *addr},
		ID:        *id,
		Batch:     *batch,
		Heartbeat: *heartbeat,
		Poll:      *poll,
		MaxPoll:   *maxPoll,
		MaxIdle:   *idleExit,
		ExecDelay: *execDelay,
	}
	if !*quiet {
		w.Logf = log.New(os.Stderr, "", log.LstdFlags).Printf
	}

	// SIGINT/SIGTERM cancel the context; Run returns nil and any cells
	// still leased simply expire back to the server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitcode.Err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "vbrworker %s: done (%d cells completed)\n", *id, w.Completed())
	}
	os.Exit(exitcode.OK)
}
