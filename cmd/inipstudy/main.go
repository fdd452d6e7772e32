// Command inipstudy regenerates the paper's evaluation figures (8-18)
// over the synthetic SPEC2000 suite.
//
// Usage:
//
//	inipstudy [-scale 0.01] [-fig all|fig8,fig17] [-bench mcf,gzip]
//	          [-chart] [-json] [-v]
//	inipstudy -trace t.jsonl -benchjson b.json   # observability outputs
//	                                             # (-benchjson appends a dated entry
//	                                             # to the trajectory array in b.json)
//	inipstudy -benchjson b.json -benchbase prior.json  # speedup vs a prior record
//	                                             # (prior.json: trajectory or old
//	                                             # single-record format)
//	                                             # (or -benchbase 12.5 for raw seconds;
//	                                             # a degenerate baseline exits 3)
//	inipstudy -tracesum t.jsonl                  # summarize a recorded trace
//	inipstudy -checkpoint state.jsonl            # persist finished benchmarks
//	inipstudy -checkpoint state.jsonl -resume    # continue an interrupted run
//	inipstudy -failpolicy degrade -retry 3       # survive benchmark failures
//	inipstudy -cache results.cache               # memoize unit results on disk
//	inipstudy -cache results.cache -cacheverify  # differential cache self-check
//	inipstudy -predictors all                    # dynamic-predictor zoo (figp1/figp2)
//	inipstudy -sampleperiods 1,4,16,64           # sampled-profiling frontier (figs1/figs2)
//	inipstudy -learned logreg                    # profile-free learned model (figl1/figl2)
//	inipstudy -learned tree -learnedjson m.json  # dump cross-validated weights/importances
//
// The default scale of 1.0 runs the paper's actual threshold ladder
// 100..4M (a few minutes); -scale 0.1 gives a quick low-resolution pass.
//
// SIGINT drains in-flight work, flushes the checkpoint and trace, and
// exits 130; a second SIGINT aborts immediately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
	"repro/internal/textplot"
)

// benchReport is the schema of one -benchjson perf entry. The file
// itself is an append-only trajectory — a JSON array of these, one per
// measured optimization step — kept in the repository
// (BENCH_study.json) so successive changes have a measured history to
// compare against. writeBenchJSON appends; it also accepts a file in
// the prior single-object format, which becomes the trajectory's first
// entry.
type benchReport struct {
	Date       string  `json:"date"`
	Scale      float64 `json:"scale"`
	Benchmarks int     `json:"benchmarks"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	study.Perf
	// BaselineWallSeconds/Speedup are filled when -benchbase supplies
	// the wall-clock of a reference binary over the same invocation.
	// When a baseline was requested but is degenerate (zero or absent),
	// SpeedupNote records why no ratio was computed instead of the
	// record silently carrying a division by zero or no field at all.
	BaselineWallSeconds float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup             float64 `json:"speedup_vs_baseline,omitempty"`
	SpeedupNote         string  `json:"speedup_note,omitempty"`
}

// parseBenchBase interprets the -benchbase value: a number is the
// baseline wall-clock in seconds verbatim; anything else is the path of
// a prior -benchjson file whose wall_seconds supplies it — either
// format: a trajectory array (the latest entry is the baseline) or the
// prior single-object record. A degenerate baseline (zero, negative, or
// a record without the field) is not an error here — writeBenchJSON
// reports it as "n/a" — but an unreadable or unparsable file is.
func parseBenchBase(v string) (float64, error) {
	if v == "" {
		return 0, nil
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return secs, nil
	}
	data, err := os.ReadFile(v)
	if err != nil {
		return 0, err
	}
	var rec struct {
		WallSeconds float64 `json:"wall_seconds"`
	}
	var arr []json.RawMessage
	if json.Unmarshal(data, &arr) == nil {
		if len(arr) == 0 {
			return 0, nil
		}
		data = arr[len(arr)-1]
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return 0, fmt.Errorf("%s: %w", v, err)
	}
	return rec.WallSeconds, nil
}

// readBenchTrajectory loads an existing -benchjson file as a list of
// verbatim entries. Both formats load: the trajectory array, and the
// prior single-object snapshot, which becomes a one-entry trajectory
// (so the first append after the format change preserves the historic
// baseline as entry zero). A missing file is an empty trajectory.
func readBenchTrajectory(path string) ([]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var arr []json.RawMessage
	if json.Unmarshal(data, &arr) == nil {
		return arr, nil
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(data, &obj) == nil {
		return []json.RawMessage{json.RawMessage(data)}, nil
	}
	return nil, fmt.Errorf("%s: neither a bench trajectory array nor a prior single-record file", path)
}

// writeBenchJSON appends the run's perf record to the trajectory file.
// It reports na=true when a baseline was requested but no meaningful
// speedup could be computed — the entry then carries a speedup_note
// instead of a ratio.
func writeBenchJSON(path string, res *study.Results, nbench int, base float64, haveBase bool) (na bool, err error) {
	rep := benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Scale:      res.Scale,
		Benchmarks: nbench,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Perf:       res.Perf,
	}
	switch {
	case !haveBase:
	case base > 0 && rep.WallSeconds > 0:
		rep.BaselineWallSeconds = base
		rep.Speedup = base / rep.WallSeconds
	default:
		na = true
		if base > 0 {
			rep.BaselineWallSeconds = base
		}
		rep.SpeedupNote = "n/a: baseline or measured wall-clock is zero or absent"
	}
	entry, err := json.Marshal(rep)
	if err != nil {
		return na, err
	}
	traj, err := readBenchTrajectory(path)
	if err != nil {
		return na, err
	}
	traj = append(traj, entry)
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return na, err
	}
	return na, atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// parseSamplePeriods parses the -sampleperiods flag: a comma-separated
// list of positive integers. study.Config.Validate rejects duplicates
// and zeros again, but parsing here gives flag-shaped errors up front.
func parseSamplePeriods(v string) ([]uint64, error) {
	if v == "" {
		return nil, nil
	}
	var out []uint64
	for _, s := range strings.Split(v, ",") {
		p, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("invalid sample period %q (want a positive integer)", strings.TrimSpace(s))
		}
		out = append(out, p)
	}
	return out, nil
}

// summarizeTrace renders a recorded flight-recorder file (-tracesum).
func summarizeTrace(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, obs.Render(evs))
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the smoke tests
// drive the full figure pipeline in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inipstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1.0, "paper-unit scale factor")
		figSel  = fs.String("fig", "all", "comma-separated figure ids (fig8..fig18) or 'all'")
		benches = fs.String("bench", "", "comma-separated benchmark subset (default: full suite)")
		chart   = fs.Bool("chart", false, "render ASCII charts in addition to tables")
		asJSON  = fs.Bool("json", false, "emit figure data as JSON")
		asMD    = fs.String("md", "", "write all figures as a markdown report to this file")
		verbose = fs.Bool("v", false, "print per-benchmark progress")
		ext     = fs.Bool("ext", false, "run the section-5 extension experiment instead of the figures")
		extT    = fs.Float64("extT", 2000, "paper-unit threshold for -ext")
		conv    = fs.Bool("conv", false, "run the threshold-selection (convergence) experiment instead of the figures")

		benchJSON = fs.String("benchjson", "", "append suite wall-clock, blocks/sec, per-phase timing and engine counters as a dated entry to the trajectory array in this file")
		benchBase = fs.String("benchbase", "", "baseline for the -benchjson speedup: wall-clock seconds, or the path of a prior -benchjson record (its wall_seconds is used)")
		par       = fs.Int("par", 0, "worker-pool size for run units (default: GOMAXPROCS)")

		traceFile  = fs.String("trace", "", "write a flight-recorder event per pipeline unit as JSONL to this file")
		traceSum   = fs.String("tracesum", "", "summarize a recorded -trace file (phases, benchmarks, worker occupancy) and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the study to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile taken after the study to this file")

		failPolicy    = fs.String("failpolicy", "failfast", "on unit failure: 'failfast' cancels the study, 'degrade' drops the failing benchmark and completes the rest")
		retry         = fs.Int("retry", 0, "max attempts per pipeline unit before its failure is permanent (0 or 1 = no retry)")
		retryBackoff  = fs.Duration("retrybackoff", 0, "wait before the second attempt of a failed unit, doubling each further attempt")
		inject        = fs.String("inject", "", "deterministic fault-injection spec for robustness testing, e.g. 'build:gzip/ref' or 'trap:mcf/train@1000' (see internal/faultinject)")
		checkpoint    = fs.String("checkpoint", "", "persist completed benchmarks to this JSONL file as they finish")
		resume        = fs.Bool("resume", false, "restore completed benchmarks from -checkpoint and run only the remainder")
		stopAfter     = fs.Int("stopafter", 0, "stop gracefully after this many benchmark completions (testing hook for resume)")
		cacheDir      = fs.String("cache", "", "memoize unit results in this content-addressed directory; a warm rerun of an unchanged study executes zero guest blocks")
		cacheVerify   = fs.Bool("cacheverify", false, "execute every unit despite cache hits and hard-error if a cached value diverges (requires -cache)")
		predictors    = fs.String("predictors", "", "comma-separated dynamic branch predictors to run over each reference trace (taken,nottaken,1bit,2bit,gshare,perceptron, 'learned', or 'all'); adds figp1/figp2 without touching the paper figures")
		samplePeriods = fs.String("sampleperiods", "", "comma-separated sampled-profiling periods to sweep (e.g. 1,4,16,64); adds figs1/figs2 without touching the paper figures")
		learnedModel  = fs.String("learned", "", "train the profile-free learned static branch model over the suite ('logreg' or 'tree'); adds figl1/figl2 without touching the paper figures")
		learnedJSON   = fs.String("learnedjson", "", "write the cross-validated learned model (weights, per-feature importances, per-fold held-out rates) as JSON to this file; implies -learned logreg unless -learned is set")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Resolve the baseline up front so a bad -benchbase file fails
	// before the study runs, not after minutes of work.
	baseSecs, baseErr := parseBenchBase(*benchBase)
	if baseErr != nil {
		fmt.Fprintf(stderr, "inipstudy: -benchbase: %v\n", baseErr)
		return 1
	}

	// Sweep atomic-write temporaries a killed previous invocation may
	// have orphaned next to our output targets (the checkpoint's are
	// swept when it is opened). Startup is the one moment no write of
	// this process can be in flight.
	for _, p := range []string{*benchJSON, *asMD, *traceFile, *learnedJSON} {
		if p != "" {
			atomicio.SweepTempsFor(p)
		}
	}

	if *traceSum != "" {
		if err := summarizeTrace(*traceSum, stdout); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		return 0
	}

	if *conv {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		res, err := study.RunConvergence(names, *scale)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, res.Render())
		return 0
	}

	if *ext {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		res, err := study.RunExtensions(names, *scale, *extT)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, res.Render())
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := study.Config{
		Scale:        *scale,
		Parallelism:  *par,
		MaxAttempts:  *retry,
		RetryBackoff: *retryBackoff,
		Checkpoint:   *checkpoint,
		Resume:       *resume,
		StopAfter:    *stopAfter,
	}
	pol, perr := core.ParseFailurePolicy(*failPolicy)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.Policy = pol
	// 'learned' rides the -predictors selection but is a separate class
	// (a static model, not a dynamic predictor): strip the token before
	// the dynamic-predictor parse and map it to the study's learned
	// config. Note 'all' selects the dynamic zoo only.
	predList := *predictors
	learnedSel := *learnedModel
	if predList != "" {
		var kept []string
		for _, tok := range strings.Split(predList, ",") {
			if strings.TrimSpace(tok) == "learned" {
				if learnedSel == "" {
					learnedSel = learned.ModelLogReg
				}
				continue
			}
			kept = append(kept, tok)
		}
		predList = strings.Join(kept, ",")
	}
	preds, perr := predict.ParseList(predList)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.Predictors = preds
	if *learnedJSON != "" && learnedSel == "" {
		learnedSel = learned.ModelLogReg
	}
	if learnedSel != "" {
		cfg.Learned = &learned.Config{Model: learnedSel}
	}
	periods, perr := parseSamplePeriods(*samplePeriods)
	if perr != nil {
		fmt.Fprintf(stderr, "inipstudy: %v\n", perr)
		return 2
	}
	cfg.SamplePeriods = periods
	if *cacheVerify && *cacheDir == "" {
		fmt.Fprintln(stderr, "inipstudy: -cacheverify requires -cache")
		return 2
	}
	if *cacheDir != "" {
		store, serr := resultcache.Open(*cacheDir)
		if serr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", serr)
			return 1
		}
		cfg.Cache = store
		cfg.CacheVerify = *cacheVerify
	}
	if *inject != "" {
		plan, ferr := faultinject.Parse(*inject)
		if ferr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", ferr)
			return 2
		}
		cfg.Faults = plan
	}
	if *verbose {
		cfg.Progress = stderr
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			b := spec.ByName(strings.TrimSpace(name))
			if b == nil {
				fmt.Fprintf(stderr, "inipstudy: unknown benchmark %q\n", name)
				return 2
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}

	// SIGINT requests a graceful drain: in-flight units finish, the
	// checkpoint and trace are flushed, and the run reports ErrStopped.
	// A second SIGINT aborts on the spot.
	stop := make(chan struct{})
	cfg.Stop = stop
	finished := make(chan struct{})
	defer close(finished)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(stderr, "inipstudy: interrupt — draining in-flight work (^C again to abort)")
			close(stop)
		case <-finished:
			return
		}
		select {
		case <-sig:
			os.Exit(130)
		case <-finished:
		}
	}()

	var traceOut *atomicio.File
	if *traceFile != "" {
		f, err := atomicio.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		traceOut = f
		cfg.Trace = obs.NewRecorder(f)
	}

	res, err := study.Run(cfg)
	stopped := errors.Is(err, study.ErrStopped)
	if cfg.Trace != nil {
		// The trace is published even when the study stopped or failed:
		// the recorder closed cleanly, so the file is complete JSONL and
		// exactly what a post-mortem wants. Only a write error discards.
		dropped, cerr := cfg.Trace.Close()
		if cerr == nil {
			cerr = traceOut.Commit()
		} else {
			traceOut.Close()
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipstudy: trace: %v\n", cerr)
			if err == nil {
				return 1
			}
		} else {
			fmt.Fprintf(stderr, "wrote %s (%d events dropped)\n", *traceFile, dropped)
		}
	}
	if err != nil && !stopped {
		fmt.Fprintf(stderr, "inipstudy: %v\n", err)
		return 1
	}

	if len(res.Failures) > 0 {
		fmt.Fprintf(stderr, "inipstudy: %d unit failure(s); the affected benchmarks are excluded from every figure:\n", len(res.Failures))
		for _, f := range res.Failures {
			site := f.Unit
			if f.T > 0 {
				site = fmt.Sprintf("%s@T=%d", f.Unit, f.T)
			}
			fmt.Fprintf(stderr, "  %s: %s failed after %d attempt(s): %s\n", f.Bench, site, f.Attempts, f.Err)
		}
	}

	if cfg.Cache != nil {
		c := cfg.Cache.Counters()
		line := fmt.Sprintf("cache %s: %d hits, %d misses, %d stores, %d errors",
			*cacheDir, c.Hits, c.Misses, c.Stores, c.Errors)
		if c.HealFailures > 0 {
			line += fmt.Sprintf(", %d heal failures (cache is read-only)", c.HealFailures)
		}
		fmt.Fprintln(stderr, line)
	}

	if stopped {
		done := 0
		for _, s := range res.Series {
			if s.Name != "" && len(s.Failures) == 0 {
				done++
			}
		}
		fmt.Fprintf(stderr, "inipstudy: stopped with %d of %d benchmarks finished\n", done, len(res.Series))
		if *checkpoint != "" {
			fmt.Fprintf(stderr, "inipstudy: resume with: -checkpoint %s -resume\n", *checkpoint)
		}
		return 130
	}

	if *memProfile != "" {
		f, cerr := os.Create(*memProfile)
		if cerr == nil {
			runtime.GC()
			cerr = pprof.WriteHeapProfile(f)
			if ferr := f.Close(); cerr == nil {
				cerr = ferr
			}
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipstudy: memprofile: %v\n", cerr)
			return 1
		}
	}

	// okExit is what success paths below return: 0, or 3 when the run
	// completed but the requested speedup-vs-baseline was degenerate.
	okExit := 0
	if *benchJSON != "" {
		nbench := len(cfg.Benchmarks)
		if nbench == 0 {
			nbench = len(spec.Suite())
		}
		na, err := writeBenchJSON(*benchJSON, res, nbench, baseSecs, *benchBase != "")
		if err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		if na {
			fmt.Fprintf(stderr, "inipstudy: warning: speedup vs baseline is n/a (-benchbase %q gives %g s against %g s measured)\n",
				*benchBase, baseSecs, res.Perf.WallSeconds)
			okExit = 3
		}
		fmt.Fprintf(stderr, "wrote %s (wall %.1fs, %.2fM blocks/s)\n",
			*benchJSON, res.Perf.WallSeconds, res.Perf.BlocksPerSec/1e6)
	}

	if *learnedJSON != "" {
		if res.Learned == nil {
			fmt.Fprintln(stderr, "inipstudy: -learnedjson: no learned fit was produced (a leave-one-out fit needs at least two cleanly completed benchmarks)")
			return 1
		}
		data, jerr := json.MarshalIndent(res.Learned, "", " ")
		if jerr == nil {
			jerr = atomicio.WriteFile(*learnedJSON, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", jerr)
			return 1
		}
		branches, mis, _ := res.Learned.Totals()
		fmt.Fprintf(stderr, "wrote %s (%s, held-out %d/%d mispredicted = %.4f vs always-taken %.4f)\n",
			*learnedJSON, res.Learned.Fingerprint, mis, branches, res.Learned.Rate(), res.Learned.TakenRate())
	}

	if *asMD != "" {
		if err := atomicio.WriteFile(*asMD, []byte(res.MarkdownReport()), 0o644); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *asMD)
		return okExit
	}

	want := map[string]bool{}
	if *figSel != "all" {
		for _, id := range strings.Split(*figSel, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var out []study.Figure
	for _, f := range res.Figures() {
		if len(want) == 0 || want[f.ID] {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(stderr, "inipstudy: no figures match %q\n", *figSel)
		return 2
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "inipstudy: %v\n", err)
			return 1
		}
		return okExit
	}

	for _, f := range out {
		fmt.Fprintf(stdout, "== %s: %s ==\n", f.ID, f.Title)
		series := make([]textplot.Series, len(f.Series))
		for i, s := range f.Series {
			series[i] = textplot.Series{Label: s.Label, Y: s.Y}
		}
		fmt.Fprint(stdout, textplot.Table("T", f.X, series))
		if *chart {
			fmt.Fprint(stdout, textplot.Chart(f.X, series, 72, 18))
		}
		for _, n := range f.Notes {
			fmt.Fprintf(stdout, "note: %s\n", n)
		}
		for _, g := range f.Gaps {
			fmt.Fprintf(stdout, "%s\n", g)
		}
		fmt.Fprintln(stdout)
	}
	return okExit
}
