// Command inipfleet runs the distributed study fleet: one coordinator
// that shards the benchmark suite as revocable leases, and N workers
// that execute units and publish results (see internal/fleet for the
// protocol and its failure semantics).
//
// Usage:
//
//	inipfleet -mode coordinator -addr 127.0.0.1:0 -addrfile addr.txt \
//	          -scale 0.01 -state fleet.d -figjson figures.json
//	inipfleet -mode worker -coordinator http://127.0.0.1:9090 \
//	          -id w1 -cache results.cache -scratch w1.d
//
// The fleet tolerates the failures a real deployment meets: a killed
// worker's lease expires and its unit is reassigned; a slow worker
// keeps its lease by heartbeating; a killed coordinator restarts with
// -resume and re-executes nothing its checkpoint already holds; lost
// benchmarks under -failpolicy degrade surface as structured failures
// while the rest of the suite completes. Figures are byte-identical
// across fleet sizes and across any of those interruptions.
//
// SIGINT/SIGTERM on the coordinator drains gracefully (checkpoint
// flushed, exit 130); on a worker it abandons the current lease and
// exits 0 — worker loss is an expected fleet event.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or stalled client cannot hold a
// connection open indefinitely. It is not a flag: no legitimate client
// needs longer.
const readHeaderTimeout = 10 * time.Second

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main with its environment made explicit for the tests and the
// CI smoke: args, output streams, and the shutdown-signal channel.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("inipfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode = fs.String("mode", "", "'coordinator' or 'worker'")

		// Coordinator flags.
		addr       = fs.String("addr", "127.0.0.1:9090", "coordinator listen address (host:port; port 0 picks a free one)")
		addrFile   = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using port 0)")
		scale      = fs.Float64("scale", 1.0, "paper-unit scale factor")
		benches    = fs.String("bench", "", "comma-separated benchmark subset (default: full suite)")
		stateDir   = fs.String("state", "", "coordinator state directory (study checkpoint + lease journal); enables -resume")
		resume     = fs.Bool("resume", false, "restore settled benchmarks from the -state checkpoint and lease only the remainder")
		stopAfter  = fs.Int("stopafter", 0, "stop gracefully after this many settled benchmarks (testing hook for resume)")
		leaseTTL   = fs.Duration("leasettl", 10*time.Second, "lease deadline; a worker that neither completes nor heartbeats within it loses the unit")
		maxAtt     = fs.Int("maxattempts", 3, "max leases per unit before its loss is permanent")
		backoff    = fs.Duration("retrybackoff", 0, "wait before re-leasing a lost unit, doubling per attempt")
		figJSON    = fs.String("figjson", "", "write the figure corpus as indented JSON to this file on completion")
		linger     = fs.Duration("linger", 3*time.Second, "keep serving done to workers for this long after completion, so they exit instead of timing out")
		coordTrace = fs.String("trace", "", "write coordinator lease-lifecycle events (JSONL) to this file on exit")

		// Worker flags.
		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:9090 (worker mode)")
		id          = fs.String("id", "", "worker id (default: w-<pid>)")
		workers     = fs.Int("workers", 0, "worker-local execution pool size (default: GOMAXPROCS)")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory; point every worker on a host at the same one")
		scratch     = fs.String("scratch", "", "worker scratch/state directory (swept for orphaned temps on open)")
		inject      = fs.String("inject", "", "deterministic fault-injection spec: unit faults perturb execution, net:* faults perturb this worker's protocol calls (see internal/faultinject)")
		poll        = fs.Duration("poll", 200*time.Millisecond, "lease poll interval when idle")
		maxOffline  = fs.Duration("maxoffline", 2*time.Minute, "give up after the coordinator has been unreachable this long (spans coordinator restarts)")

		// Shared.
		failPolicy = fs.String("failpolicy", "degrade", "on permanent unit loss: 'degrade' records a structured failure and completes the rest, 'failfast' cancels")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pol, perr := core.ParseFailurePolicy(*failPolicy)
	if perr != nil {
		fmt.Fprintf(stderr, "inipfleet: %v\n", perr)
		return 2
	}

	switch *mode {
	case "coordinator":
		cfg := fleet.Config{
			LeaseTTL:     *leaseTTL,
			MaxAttempts:  *maxAtt,
			RetryBackoff: *backoff,
			StateDir:     *stateDir,
			Study: study.Config{
				Scale:     *scale,
				Policy:    pol,
				Resume:    *resume,
				StopAfter: *stopAfter,
			},
		}
		if *benches != "" {
			for _, name := range strings.Split(*benches, ",") {
				b := spec.ByName(strings.TrimSpace(name))
				if b == nil {
					fmt.Fprintf(stderr, "inipfleet: unknown benchmark %q\n", name)
					return 2
				}
				cfg.Study.Benchmarks = append(cfg.Study.Benchmarks, b)
			}
		}
		return runCoordinator(cfg, *addr, *addrFile, *figJSON, *coordTrace, *linger, stdout, stderr, sig)

	case "worker":
		wcfg := fleet.WorkerConfig{
			ID:           *id,
			Coordinator:  *coordinator,
			Workers:      *workers,
			Policy:       pol,
			PollInterval: *poll,
			MaxOffline:   *maxOffline,
			ScratchDir:   *scratch,
		}
		if *cacheDir != "" {
			store, err := resultcache.Open(*cacheDir)
			if err != nil {
				fmt.Fprintf(stderr, "inipfleet: %v\n", err)
				return 1
			}
			wcfg.Cache = store
		}
		if *inject != "" {
			plan, err := faultinject.Parse(*inject)
			if err != nil {
				fmt.Fprintf(stderr, "inipfleet: %v\n", err)
				return 2
			}
			wcfg.Faults = plan
		}
		return runWorker(wcfg, stderr, sig)

	default:
		fmt.Fprintf(stderr, "inipfleet: -mode must be 'coordinator' or 'worker' (got %q)\n", *mode)
		return 2
	}
}

// runCoordinator serves the fleet protocol while the distributed study
// runs, then lingers briefly so workers observe done and exit. A
// graceful stop (signal or -stopafter) flushes the checkpoint and
// exits 130, mirroring inipstudy.
func runCoordinator(cfg fleet.Config, addr, addrFile, figJSON, traceFile string, linger time.Duration, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	var traceOut *atomicio.File
	if traceFile != "" {
		atomicio.SweepTempsFor(traceFile)
		f, err := atomicio.Create(traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "inipfleet: %v\n", err)
			return 1
		}
		traceOut = f
		cfg.Trace = obs.NewRecorder(f)
	}
	stop := make(chan struct{})
	cfg.Study.Stop = stop

	c, err := fleet.NewCoordinator(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "inipfleet: %v\n", err)
		return 1
	}
	defer c.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "inipfleet: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		atomicio.SweepTempsFor(addrFile)
		if err := atomicio.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "inipfleet: %v\n", err)
			ln.Close()
			return 1
		}
	}
	httpSrv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "inipfleet: coordinator listening on %s\n", bound)

	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "inipfleet: %v — draining (in-flight leases settle, checkpoint flushes)\n", s)
			close(stop)
		case <-finished:
		}
	}()

	res, err := c.Run()
	stopped := errors.Is(err, study.ErrStopped)
	if cfg.Trace != nil {
		dropped, cerr := cfg.Trace.Close()
		if cerr == nil {
			cerr = traceOut.Commit()
		} else {
			traceOut.Close()
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipfleet: trace: %v\n", cerr)
		} else {
			fmt.Fprintf(stderr, "inipfleet: wrote %s (%d events dropped)\n", traceFile, dropped)
		}
	}
	if err != nil && !stopped {
		fmt.Fprintf(stderr, "inipfleet: %v\n", err)
		httpSrv.Close()
		return 1
	}

	m := c.Counters()
	fmt.Fprintf(stderr, "inipfleet: %d completions (%d late, %d duplicates), %d grants, %d expiries, %d reassignments, %d units failed\n",
		m.Completions, m.Late, m.Duplicates, m.Grants, m.Expiries, m.Reassignments, m.UnitsFailed)
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "inipfleet: %s: failed after %d attempt(s): %s\n", f.Bench, f.Attempts, f.Err)
	}

	if stopped {
		fmt.Fprintln(stderr, "inipfleet: stopped; resume with the same -state and -resume")
		httpSrv.Close()
		return 130
	}

	if figJSON != "" {
		atomicio.SweepTempsFor(figJSON)
		data, err := json.MarshalIndent(res.Figures(), "", "  ")
		if err == nil {
			err = atomicio.WriteFile(figJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "inipfleet: figjson: %v\n", err)
			httpSrv.Close()
			return 1
		}
		fmt.Fprintf(stderr, "inipfleet: wrote %s\n", figJSON)
	}

	// Keep answering done:true so polling workers exit cleanly instead
	// of burning their offline budget against a closed port.
	if linger > 0 {
		time.Sleep(linger)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	_ = stdout
	return 0
}

// runWorker polls and executes leases until the coordinator reports the
// study done, a signal arrives, or the coordinator stays unreachable
// past -maxoffline.
func runWorker(cfg fleet.WorkerConfig, stderr io.Writer, sig <-chan os.Signal) int {
	w, err := fleet.NewWorker(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "inipfleet: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "inipfleet: %v — abandoning current lease\n", s)
			cancel()
		case <-ctx.Done():
		}
	}()
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Fprintf(stderr, "inipfleet: worker done: %d settled, %d abandoned, %d attempt errors, %d heartbeats\n",
		st.UnitsSettled, st.UnitsAbandoned, st.AttemptErrors, st.Heartbeats)
	if err != nil {
		fmt.Fprintf(stderr, "inipfleet: %v\n", err)
		return 1
	}
	return 0
}
