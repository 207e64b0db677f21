// Command vbrfarm runs and talks to the simulation-farm service: a
// long-lived server that accepts sweep jobs (litmus batteries, §5.1
// matrix cells, simulator-speed bench cells) over HTTP, queues their
// cells for in-process executors and vbrworker leases alike, and
// dedupes execution through a content-addressed result cache that
// survives crashes and restarts.
//
//	vbrfarm serve -dir farm.state -addr 127.0.0.1:8373
//	vbrfarm submit -addr http://127.0.0.1:8373 -spec job.json -wait
//	vbrfarm status -addr http://127.0.0.1:8373 -id 0123456789abcdef
//	vbrfarm results -addr http://127.0.0.1:8373 -id 0123456789abcdef
//	vbrfarm metrics -addr http://127.0.0.1:8373
//
// A job spec is a JSON document with any subset of "litmus", "matrix",
// and "bench" sections (see EXPERIMENTS.md for a worked example).
// Submitting the same spec twice is idempotent: the job ID is the
// content digest of the spec plus the code fingerprint, and cells whose
// results are already cached are served without re-simulation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vbmo/internal/exitcode"
	"vbmo/internal/farm"
	"vbmo/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitcode.Err)
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "submit":
		submit(os.Args[2:])
	case "status":
		status(os.Args[2:])
	case "results":
		results(os.Args[2:])
	case "metrics":
		metrics(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "vbrfarm: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(exitcode.Err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vbrfarm serve   -dir DIR [-addr HOST:PORT] [-executors N] [-trace FILE]
  vbrfarm submit  -addr URL (-spec FILE | -spec -) [-fresh] [-wait] [-timeout D]
  vbrfarm status  -addr URL -id JOBID [-wait] [-timeout D]
  vbrfarm results -addr URL -id JOBID [-o FILE]
  vbrfarm metrics -addr URL`)
}

// fail prints the error and exits through the audited exit-code table.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(exitcode.Err)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "farm.state", "state directory (result cache + jobs journal)")
		addr      = fs.String("addr", "127.0.0.1:8373", "listen address")
		executors = fs.Int("executors", runtime.GOMAXPROCS(0), "in-process cell executors (0 = pure coordinator; cells wait for vbrworker processes)")
		leaseTTL  = fs.Duration("lease-ttl", 10*time.Second, "worker lease TTL; an unheartbeated checkout re-queues after this")
		sweep     = fs.Duration("sweep", 0, "lease expiry sweep interval (default lease-ttl/4)")
		longPoll  = fs.Duration("longpoll", 30*time.Second, "max duration of one ?wait=1 status long-poll")
		traceFile = fs.String("trace", "", "write farm lifecycle events as JSONL to this file")
	)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return a non-nil error

	var tr *trace.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		sink := trace.NewJSONLSink(f)
		tr = trace.New(sink)
		defer tr.Flush()
	}
	s, err := farm.NewServerWith(*dir, farm.ServerOptions{
		Executors:     *executors,
		LeaseTTL:      *leaseTTL,
		SweepInterval: *sweep,
		LongPollMax:   *longPoll,
	}, tr)
	if err != nil {
		fail(err)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		s.Stop()
		fail(err)
	}
	fmt.Printf("vbrfarm: serving on %s (state %s, %d executors)\n", bound, *dir, *executors)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	dropped := s.Stop()
	fmt.Printf("vbrfarm: stopped (%d queued cells dropped; journal will recover them)\n", dropped)
}

// readSpec loads a job spec from a file or stdin ("-").
func readSpec(path string) (farm.JobSpec, error) {
	var spec farm.JobSpec
	if path == "" {
		return spec, fmt.Errorf("vbrfarm: -spec is required")
	}
	var raw []byte
	var err error
	if path == "-" {
		raw, err = os.ReadFile("/dev/stdin")
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("vbrfarm: bad job spec %s: %w", path, err)
	}
	return spec, nil
}

func submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8373", "farm server base URL")
		specPath = fs.String("spec", "", "job spec JSON file (- for stdin)")
		fresh    = fs.Bool("fresh", false, "re-run a completed job through the cache")
		wait     = fs.Bool("wait", false, "block until the job finishes")
		timeout  = fs.Duration("timeout", 10*time.Minute, "wait deadline with -wait")
	)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return a non-nil error
	spec, err := readSpec(*specPath)
	if err != nil {
		fail(err)
	}
	c := &farm.Client{Base: *addr}
	st, err := c.Submit(spec, *fresh)
	if err != nil {
		fail(err)
	}
	if *wait {
		if st, err = c.Wait(st.ID, *timeout); err != nil {
			fail(err)
		}
	}
	printJSON(st)
	if st.State == farm.StateFailed {
		os.Exit(exitcode.Err)
	}
}

func status(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8373", "farm server base URL")
		id      = fs.String("id", "", "job ID")
		wait    = fs.Bool("wait", false, "block until the job finishes")
		timeout = fs.Duration("timeout", 10*time.Minute, "wait deadline with -wait")
	)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return a non-nil error
	if *id == "" {
		fail(fmt.Errorf("vbrfarm: -id is required"))
	}
	c := &farm.Client{Base: *addr}
	var st farm.JobStatus
	var err error
	if *wait {
		st, err = c.Wait(*id, *timeout)
	} else {
		st, err = c.Status(*id)
	}
	if err != nil {
		fail(err)
	}
	printJSON(st)
	if st.State == farm.StateFailed {
		os.Exit(exitcode.Err)
	}
}

func results(args []string) {
	fs := flag.NewFlagSet("results", flag.ExitOnError)
	var (
		addr = fs.String("addr", "http://127.0.0.1:8373", "farm server base URL")
		id   = fs.String("id", "", "job ID")
		out  = fs.String("o", "", "write results JSON here (default stdout)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return a non-nil error
	if *id == "" {
		fail(fmt.Errorf("vbrfarm: -id is required"))
	}
	c := &farm.Client{Base: *addr}
	res, err := c.Results(*id)
	if err != nil {
		fail(err)
	}
	if *out == "" {
		printJSON(res)
		return
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("vbrfarm: wrote %s (digest %s)\n", *out, res.Digest)
}

func metrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8373", "farm server base URL")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return a non-nil error
	c := &farm.Client{Base: *addr}
	snap, err := c.Metrics()
	if err != nil {
		fail(err)
	}
	printJSON(snap)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}
