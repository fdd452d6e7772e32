// Package core ties the translator, the normalizer and the metrics into
// the paper's experiment pipeline: run a benchmark three ways — INIP(T)
// with a retranslation threshold, AVEP with optimization disabled, and
// INIP(train) on the training input — normalize the average profile to
// each initial profile's CFG, and compute the accuracy measures
// (Sd.BP/CP/LP and the range-based mismatch rates) that the paper's
// Figures 8-18 report.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dbt"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/navep"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/resultcache"
)

// Target is a program under study: a builder that produces the guest
// image and input tape for a named input ("ref" or "train"). Builders
// may bake input-dependent parameters into the image's data segment —
// the code layout must not depend on the input, so that block addresses
// line up across profiles (as they do for real binaries).
type Target struct {
	Name  string
	Build func(input string) (*guest.Image, interp.Tape, error)
	// NewTape, when non-nil, returns a fresh tape equivalent to the one
	// Build yields for the same input. Images are read-only at run time,
	// so the scheduler then builds each input once and hands every run
	// the shared image with its own tape; without it, extra runs of the
	// same input fall back to a full Build.
	NewTape func(input string) (interp.Tape, error)
	// TapeID, when non-nil, returns a canonical identity string for the
	// input's tape: equal identities must mean byte-identical tape
	// streams. It is the input half of the result-cache key (the image
	// half is hashed from the built image), so targets without a TapeID
	// simply never cache — a tape whose identity cannot be declared is a
	// tape whose reuse cannot be proven.
	TapeID func(input string) string
}

// Compare evaluates an initial profile against an average profile and
// returns the paper's summary measures together with the normalized
// view. The avep snapshot must come from an unoptimized run.
func Compare(inip, avep *profile.Snapshot) (metrics.Summary, *navep.Result, error) {
	res, err := navep.Normalize(inip, avep)
	if err != nil {
		return metrics.Summary{}, nil, err
	}
	bp := make([]metrics.Item, 0, len(res.Blocks))
	for _, b := range res.Blocks {
		bp = append(bp, metrics.Item{Pred: b.BT, Avg: b.BM, W: b.W})
	}
	cp := make([]metrics.Item, 0, len(res.Traces))
	for _, r := range res.Traces {
		cp = append(cp, metrics.Item{Pred: r.CT, Avg: r.CM, W: r.W})
	}
	lp := make([]metrics.Item, 0, len(res.Loops))
	for _, r := range res.Loops {
		lp = append(lp, metrics.Item{Pred: r.LT, Avg: r.LM, W: r.W})
	}
	s := metrics.Summary{
		SdBP:       metrics.WeightedSD(bp),
		BPMismatch: metrics.MismatchRate(bp, metrics.BPBucket),
		HasRegions: len(inip.Regions) > 0,
		SdCP:       metrics.WeightedSD(cp),
		SdLP:       metrics.WeightedSD(lp),
		LPMismatch: metrics.MismatchRate(lp, metrics.LPBucket),
		Blocks:     len(bp),
		Traces:     len(cp),
		Loops:      len(lp),
	}
	return s, res, nil
}

// Options configures a benchmark study run.
type Options struct {
	// Thresholds is the ladder of retranslation thresholds to sweep.
	Thresholds []uint64
	// PoolTrigger passes through to the translator (default 8).
	PoolTrigger int
	// Perf enables the cycle model on every run; PerfParams overrides
	// its coefficients (zero value = defaults).
	Perf       bool
	PerfParams perfmodel.Params
	// MaxBlockExecs is the per-run safety budget (0 = none).
	MaxBlockExecs uint64
	// DisableFreeze and RegisterTwice pass through to the translator;
	// RegisterTwice defaults to on.
	DisableFreeze   bool
	NoRegisterTwice bool
	// KeepSnapshots retains the per-threshold INIP snapshots in the
	// result (memory-heavy; used by the offline tools).
	KeepSnapshots bool
	// KeepNormalized retains the full per-threshold *navep.Result. The
	// figure generators only read Summary/ops/cycles, so the study
	// leaves this off; tools that inspect per-block normalized rows turn
	// it on.
	KeepNormalized bool
	// Predictors names the dynamic branch predictors (internal/predict)
	// to drive off the reference trace as read-only observers: the
	// guest still executes once and profiling counters are untouched.
	// Empty runs no predictors, and every existing output is
	// byte-identical to a run without the field.
	Predictors []string
	// SamplePeriods is the ladder of sampled-profiling periods to sweep
	// (dbt.Config.SamplePeriod): for each period the whole INIP(T)
	// threshold ladder is rerun with sampled counters and compared to
	// the full-instrumentation AVEP, filling BenchmarkResult.Sampling.
	// The sampled runs ride the reference trace as extra followers —
	// the guest still executes exactly once — so the
	// full-instrumentation figures stay byte-identical to a run without
	// the field. Empty runs no sampled ladders.
	SamplePeriods []uint64
	// SampleSeed seeds the stride phase of every sampled run
	// (dbt.Config.SampleSeed); it participates in the sampled cache
	// keys.
	SampleSeed uint64
	// Learned, when non-nil, collects the profile-free learned
	// predictor's per-benchmark data off the reference trace: static
	// branch-site features extracted from the image plus per-site
	// outcome tallies observed on the shared trace. Collection rides
	// the existing observer rail — the guest still executes once and
	// every legacy output is byte-identical to a run without the field.
	// Training happens at the study level (the model must never see the
	// benchmark it is scored on), so the per-benchmark result is data,
	// not a fitted model. The config's Fingerprint keys the `ls` cache
	// entries.
	Learned *learned.Config
	// Workers bounds RunBenchmark's own scheduler when it is not given
	// one (default GOMAXPROCS).
	Workers int
	// Timing, when non-nil, accumulates per-phase durations and run
	// volume across all units of the benchmark.
	Timing *Timing
	// Trace, when non-nil, receives one flight-recorder event per
	// completed pipeline span. Spans are measured over exactly the
	// intervals the Timing phase buckets accumulate, so per-phase trace
	// sums reconcile with the study's Perf totals.
	Trace *obs.Recorder
	// Faults, when non-nil, is the armed fault-injection plan the
	// pipeline consults at its injection points: the build cache, the
	// translator config (guest traps) and the unit wrapper (delays,
	// panics). A nil plan injects nothing.
	Faults *faultinject.Plan
	// Cache, when non-nil, memoizes expensive unit outputs on disk (see
	// cache.go for the exact contract: lookup before a unit executes,
	// store only on clean completion, never under an armed fault plan or
	// for targets without a TapeID).
	Cache *resultcache.Store
	// CacheVerify makes every cache hit a differential self-check: the
	// unit executes anyway and a divergence between computed and cached
	// values is a hard unit error.
	CacheVerify bool
	// CacheContext carries caller-level parameters that determine
	// results but are invisible in the image, tape and config (the study
	// puts its scale here). It participates verbatim in every cache key.
	CacheContext string
	// MaxAttempts bounds how many times a failing unit body is run
	// before the failure is permanent (0 or 1 = no retry). Attempts
	// re-enter the unit from the top — the build cache does not memoize
	// errors, so a transient build failure is retried for real.
	MaxAttempts int
	// RetryBackoff is the wait before the second attempt, doubling on
	// each further attempt. Zero retries immediately. The wait aborts
	// early when the scheduler cancels.
	RetryBackoff time.Duration
}

// Timing aggregates where a study's wall-clock went. Durations are
// summed across concurrently-running units, so on a multicore box the
// phase totals add up to more than the elapsed wall time.
type Timing struct {
	Build     atomic.Int64 // ns spent building images/tapes
	RefRuns   atomic.Int64 // ns executing reference-input runs (AVEP + INIP ladder)
	TrainRuns atomic.Int64 // ns executing training-input runs
	Compare   atomic.Int64 // ns normalizing and computing metrics
	// BlocksExecuted totals dynamic block executions over all run units
	// (each profiling context counts its own pass over the trace).
	BlocksExecuted atomic.Uint64
	// SampledUnits counts executed (cold) sampled-profiling contexts and
	// SampledProfilingOps totals their actual counter updates — sampled
	// units, not scaled estimates, so the ratio against the
	// full-instrumentation ops is the real cost side of the sampling
	// frontier. Warm (cache-replayed) sampled ladders add nothing, like
	// BlocksExecuted.
	SampledUnits        atomic.Int64
	SampledProfilingOps atomic.Uint64
	// Retries counts failed unit attempts that were run again.
	Retries atomic.Int64

	// Engine-counter aggregates (see dbt.RunStats), summed over every
	// profiling context of every run unit.
	Translations      atomic.Int64
	Retranslations    atomic.Int64
	OptimizationWaves atomic.Int64
	RegionsFormed     atomic.Int64
	RegionsDissolved  atomic.Int64
	FastDispatches    atomic.Uint64
	GenericDispatches atomic.Uint64
	CacheLookups      atomic.Uint64
	InterruptPolls    atomic.Uint64
	FreezeEvents      atomic.Uint64
}

// AddRunStats folds one run's engine counters into the aggregate.
func (t *Timing) AddRunStats(st *dbt.RunStats) {
	t.BlocksExecuted.Add(st.BlocksExecuted)
	t.Translations.Add(int64(st.BlocksTranslated))
	t.Retranslations.Add(int64(st.Retranslations))
	t.OptimizationWaves.Add(int64(st.OptimizationWaves))
	t.RegionsFormed.Add(int64(st.RegionsFormed))
	t.RegionsDissolved.Add(int64(st.RegionsDissolved))
	t.FastDispatches.Add(st.FastDispatches)
	t.GenericDispatches.Add(st.GenericDispatches)
	t.CacheLookups.Add(st.CacheLookups)
	t.InterruptPolls.Add(st.InterruptPolls)
	t.FreezeEvents.Add(st.FreezeEvents)
}

// ThresholdResult is the outcome of one INIP(T) run compared to AVEP.
type ThresholdResult struct {
	T            uint64
	Summary      metrics.Summary
	Normalized   *navep.Result
	ProfilingOps uint64
	Cycles       float64
	Stats        dbt.RunStats
	Snapshot     *profile.Snapshot // nil unless Options.KeepSnapshots
}

// SampleThresholdResult is one rung of a sampled-profiling ladder: the
// INIP(T) run rerun with dbt.Config.SamplePeriod set, compared against
// the same full-instrumentation AVEP as the main ladder.
type SampleThresholdResult struct {
	T       uint64          `json:"t"`
	Summary metrics.Summary `json:"summary"`
	// ProfilingOps is the run's actual counter-update total — sampled
	// events, not scaled estimates — so its ratio against the matching
	// full-instrumentation rung's ProfilingOps is the measured profiling
	// cost of the period.
	ProfilingOps uint64  `json:"profiling_ops"`
	Cycles       float64 `json:"cycles"`
}

// SamplePeriodResult is the whole threshold ladder rerun at one sampled
// profiling period, in Options.Thresholds order.
type SamplePeriodResult struct {
	Period uint64                  `json:"period"`
	PerT   []SampleThresholdResult `json:"per_t"`
}

// UnitFailure records one unit whose failure was absorbed under the
// Degrade policy: which unit of which benchmark failed, after how many
// attempts, and with what error. A benchmark with failures has
// incomplete measurement data and is excluded from figure aggregation.
type UnitFailure struct {
	Bench string `json:"bench"`
	// Unit is the failing span kind (obs.Unit* constants).
	Unit string `json:"unit"`
	// T is the effective threshold for per-threshold units, 0 otherwise.
	T uint64 `json:"t,omitempty"`
	// Attempts is how many times the unit body ran before giving up.
	Attempts int `json:"attempts"`
	// Err is the final attempt's error, verbatim.
	Err string `json:"err"`
}

// BenchmarkResult is the complete study output for one benchmark.
type BenchmarkResult struct {
	Name string
	// AVEP is the average profile of the reference input.
	AVEP *profile.Snapshot
	// AVEPCycles is the cycle cost of running unoptimized forever.
	AVEPCycles float64
	// Train compares INIP(train) to AVEP (blocks only, as in the
	// paper: unoptimized runs carry no regions).
	Train metrics.Summary
	// TrainRegions compares INIP(train) to AVEP after forming regions
	// offline over the training profile (the paper's section-5 future
	// work, which makes Sd.CP(train) and Sd.LP(train) computable).
	// Regions are formed at the reference threshold of 2000.
	TrainRegions metrics.Summary
	// TrainOps is the profiling-operation total of the training run,
	// the normalization base of Figure 18.
	TrainOps uint64
	// Results holds one entry per threshold, in ladder order.
	Results []ThresholdResult
	// Predictors holds one accuracy tally per requested dynamic
	// predictor, in Options.Predictors order. The branch stream is the
	// reference trace, so the tallies are threshold-independent and
	// identical across worker counts and dispatch paths.
	Predictors []predict.Result
	// Sampling holds one rerun ladder per requested sampled-profiling
	// period, in Options.SamplePeriods order. Nil when no periods were
	// requested.
	Sampling []SamplePeriodResult
	// Learned is the learned-predictor collection (static site features
	// + reference-trace tallies), present when Options.Learned was set.
	// Like Predictors it is threshold-independent and bit-identical
	// across worker counts and dispatch paths.
	Learned *learned.BenchData
	// Failures lists the units that failed permanently under the Degrade
	// policy, in completion order (callers that need a stable order sort
	// by unit and threshold). Empty on a clean run; under FailFast the
	// study errors out instead of recording failures.
	Failures []UnitFailure
}

func (o *Options) dbtConfig(input string, threshold uint64, optimize bool) dbt.Config {
	cfg := dbt.Config{
		Input:         input,
		Threshold:     threshold,
		Optimize:      optimize,
		PoolTrigger:   o.PoolTrigger,
		RegisterTwice: !o.NoRegisterTwice,
		DisableFreeze: o.DisableFreeze,
		MaxBlockExecs: o.MaxBlockExecs,
	}
	if o.Perf {
		params := o.PerfParams
		if params == (perfmodel.Params{}) {
			params = perfmodel.DefaultParams()
		}
		cfg.Perf = perfmodel.NewAccumulator(params)
	}
	return cfg
}

// buildCache builds each input of a target once. The first caller gets
// the tape Build produced; later callers of the same input get the
// shared (read-only) image with a fresh tape from Target.NewTape, or a
// full rebuild when the target has no tape factory. Errors are not
// memoized — a failed build is retried by the next caller, which is
// what lets the retry machinery recover from transient build faults.
type buildCache struct {
	t      Target
	faults *faultinject.Plan
	mu     sync.Mutex
	// mu guards entries and every entry. Holding it across Build
	// serializes a target's ref and train builds; builds are a rounding
	// error next to the runs, and serializing is what makes a failed
	// build safely retryable.
	entries map[string]*buildEntry
	builds  atomic.Int64 // Build invocations, for tests
}

type buildEntry struct {
	built    bool
	img      *guest.Image
	tape     interp.Tape
	tapeUsed bool
}

func newBuildCache(t Target, faults *faultinject.Plan) *buildCache {
	return &buildCache{t: t, faults: faults, entries: make(map[string]*buildEntry)}
}

func (c *buildCache) get(input string) (*guest.Image, interp.Tape, error) {
	// Injected build faults fire before the real builder is consulted
	// and bypass the cache entirely, so a bounded fault ("*k") leaves
	// later attempts a clean build to succeed with.
	if err := c.faults.BuildError(c.t.Name, input); err != nil {
		return nil, nil, fmt.Errorf("core: build %s/%s: %w", c.t.Name, input, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[input]
	if e == nil {
		e = &buildEntry{}
		c.entries[input] = e
	}
	if !e.built {
		c.builds.Add(1)
		img, tape, err := c.t.Build(input)
		if err != nil {
			return nil, nil, fmt.Errorf("core: build %s/%s: %w", c.t.Name, input, err)
		}
		e.built, e.img, e.tape = true, img, tape
	}
	if !e.tapeUsed {
		e.tapeUsed = true
		return e.img, e.tape, nil
	}
	if c.t.NewTape != nil {
		tape, err := c.t.NewTape(input)
		if err != nil {
			return nil, nil, fmt.Errorf("core: build %s/%s: %w", c.t.Name, input, err)
		}
		return e.img, tape, nil
	}
	// No tape factory: tapes are stateful, so a fresh run needs a fresh
	// build.
	c.builds.Add(1)
	img, tape, err := c.t.Build(input)
	if err != nil {
		return nil, nil, fmt.Errorf("core: build %s/%s: %w", c.t.Name, input, err)
	}
	return img, tape, err
}

// benchRun is the in-flight state of one scheduled benchmark: the AVEP
// snapshot memo the comparison stages wait for, the training snapshot,
// and the count of outstanding work items.
type benchRun struct {
	s      *Scheduler
	t      Target
	opts   Options
	out    *BenchmarkResult
	onDone func(*BenchmarkResult)
	build  *buildCache

	// refImgHash and trainImgHash are the content hashes of the built
	// images, filled by the run units before they spawn (or inline-run)
	// any unit that keys a cache entry off them; like out.AVEP they are
	// then read lock-free under the spawn's happens-before edge.
	refImgHash   string
	trainImgHash string

	mu            sync.Mutex
	avep          *profile.Snapshot // set once by the reference unit
	train         *profile.Snapshot // set once by the training unit
	trainCompared bool
	remaining     int
}

// finishItem retires one work item; the last one reports the result.
func (b *benchRun) finishItem() {
	b.mu.Lock()
	b.remaining--
	done := b.remaining == 0
	b.mu.Unlock()
	if done && b.onDone != nil {
		b.onDone(b.out)
	}
}

// record closes a measured span: the duration lands in the matching
// Timing phase bucket and — when tracing is on — one flight-recorder
// event is emitted. Both observers are fed from the same interval, so
// trace per-phase sums reconcile exactly with the Perf phase totals.
func (b *benchRun) record(unit string, threshold uint64, worker int, start time.Time, blocks uint64, err error) {
	b.recordEv(unit, threshold, worker, start, obs.Event{Blocks: blocks}, err)
}

// recordRun is record for executed run spans: the engines' hot-loop
// counters ride along in the trace event, so -tracesum can report
// blocks/s, the dispatch split and the cache-lookup rate from the trace
// alone.
func (b *benchRun) recordRun(unit string, threshold uint64, worker int, start time.Time, stats ...*dbt.RunStats) {
	var ev obs.Event
	for _, st := range stats {
		ev.Blocks += st.BlocksExecuted
		ev.Fast += st.FastDispatches
		ev.Generic += st.GenericDispatches
		ev.Lookups += st.CacheLookups
	}
	b.recordEv(unit, threshold, worker, start, ev, nil)
}

// recordEv is the shared body of record/recordRun; ev carries the
// span's counter payload, identity and timeline are filled here.
func (b *benchRun) recordEv(unit string, threshold uint64, worker int, start time.Time, ev obs.Event, err error) {
	dur := time.Since(start)
	if tm := b.opts.Timing; tm != nil {
		switch unit {
		case obs.UnitBuild:
			tm.Build.Add(int64(dur))
		case obs.UnitRef:
			tm.RefRuns.Add(int64(dur))
		case obs.UnitTrain:
			tm.TrainRuns.Add(int64(dur))
		case obs.UnitCompare, obs.UnitTrainCompare, obs.UnitSampleCompare:
			tm.Compare.Add(int64(dur))
		}
	}
	ev.Bench, ev.Unit, ev.T, ev.Worker = b.t.Name, unit, threshold, worker
	b.opts.Trace.RecordEvent(ev, start, dur, err)
}

// addRunStats folds one run's engine counters into the study aggregate.
func (b *benchRun) addRunStats(st *dbt.RunStats) {
	if b.opts.Timing != nil {
		b.opts.Timing.AddRunStats(st)
	}
}

// addSampleStats folds one executed sampled context's profiling volume
// into the study aggregate. Called only on cold paths, so warm reruns
// report zero sampled units, mirroring BlocksExecuted.
func (b *benchRun) addSampleStats(snap *profile.Snapshot) {
	if tm := b.opts.Timing; tm != nil {
		tm.SampledUnits.Add(1)
		tm.SampledProfilingOps.Add(snap.ProfilingOps)
	}
}

// ScheduleBenchmark decomposes the three-way study of one target into
// run units on the scheduler: the reference unit (AVEP and the whole
// INIP ladder replayed over its trace), the training unit, one
// comparison unit per distinct threshold, one sampled-ladder comparison
// per sample period, and the training comparison. onDone is called
// with the completed result; on failure the scheduler records the first
// error instead.
//
// Dependencies are handled by spawning: the per-threshold comparisons
// need the AVEP snapshot, so the reference unit schedules them after the
// memo is filled; the training comparison runs inline in whichever of
// the two run units finishes second. No unit ever holds a pool slot
// while waiting, so the pipeline cannot deadlock at any pool size.
func ScheduleBenchmark(s *Scheduler, t Target, opts Options, onDone func(*BenchmarkResult)) {
	scheduleBenchmark(s, t, opts, onDone)
}

// scheduleBenchmark is ScheduleBenchmark returning the in-flight state,
// which the fail-fast regression tests inspect (results must stay
// untouched when units are dropped).
func scheduleBenchmark(s *Scheduler, t Target, opts Options, onDone func(*BenchmarkResult)) *benchRun {
	b := &benchRun{
		s:      s,
		t:      t,
		opts:   opts,
		out:    &BenchmarkResult{Name: t.Name, Results: make([]ThresholdResult, len(opts.Thresholds))},
		onDone: onDone,
		build:  newBuildCache(t, opts.Faults),
	}
	if len(opts.SamplePeriods) > 0 {
		b.out.Sampling = make([]SamplePeriodResult, len(opts.SamplePeriods))
	}
	// Work items: reference unit, training unit, training comparison,
	// one comparison per threshold, and one sampled-ladder comparison
	// per requested sample period.
	b.remaining = len(opts.Thresholds) + 3 + len(opts.SamplePeriods)
	if t.Build == nil {
		s.GoW(func(w int) error {
			_, err := b.execute(obs.UnitBuild, 0, w, b.cancelAll, func() error {
				return fmt.Errorf("core: target %q has no builder", t.Name)
			})
			return err
		})
		return b
	}
	s.GoW(b.refUnit)
	s.GoW(b.trainUnit)
	return b
}

// dbtConfig attaches the scheduler's cancellation channel and any
// armed guest-trap fault for this (bench, input).
func (b *benchRun) dbtConfig(input string, threshold uint64, optimize bool) dbt.Config {
	cfg := b.opts.dbtConfig(input, threshold, optimize)
	cfg.Interrupt = b.s.Done()
	if n, ok := b.opts.Faults.Trap(b.t.Name, input); ok {
		cfg.TrapAfter = n
	}
	return cfg
}

// execute runs one unit body under the scheduler's failure policy,
// with fault injection and bounded retry. The outcomes:
//
//   - success: (true, nil) — the body has done its own work-item
//     accounting (spawning dependents, finishItem on the items it
//     completed).
//   - absorbed failure (Degrade): (false, nil) — the failure is
//     recorded in the result and cancel has retired the unit's own
//     item plus every dependent item that will now never be spawned,
//     so the benchmark still completes and reports.
//   - propagated failure (FailFast, or the pool is cancelling):
//     (false, err) — the caller hands err to the scheduler, which
//     cancels the study with it. No items are retired; the pool is
//     collapsing and onDone must not fire.
func (b *benchRun) execute(unit string, t uint64, worker int, cancel func(), f func() error) (ok bool, err error) {
	attempts, err := b.runAttempts(unit, t, worker, f)
	if err == nil {
		return true, nil
	}
	if b.s.Policy() != Degrade || errors.Is(err, dbt.ErrInterrupted) || b.s.Stopped() {
		return false, err
	}
	b.recordFailure(unit, t, attempts, err)
	cancel()
	return false, nil
}

// runAttempts runs the body up to Options.MaxAttempts times with
// doubling backoff, reporting how many attempts ran and the final
// error. Attempts stop early when the pool is cancelling or the run
// was interrupted — retrying cancelled work would only delay shutdown.
func (b *benchRun) runAttempts(unit string, t uint64, worker int, f func() error) (attempts int, err error) {
	max := b.opts.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempts = 1; ; attempts++ {
		err = b.protect(unit, t, f)
		if err == nil || attempts >= max || errors.Is(err, dbt.ErrInterrupted) || b.s.Stopped() {
			return attempts, err
		}
		if tm := b.opts.Timing; tm != nil {
			tm.Retries.Add(1)
		}
		b.opts.Trace.Record(b.t.Name, obs.UnitRetry, t, worker, time.Now(), 0, 0, err)
		if d := b.opts.RetryBackoff; d > 0 {
			select {
			case <-time.After(d << (attempts - 1)):
			case <-b.s.Done():
				return attempts, err
			}
		}
	}
}

// protect runs the unit body once: injected delays and panics for this
// site fire first, and any panic — injected or a genuine defect in the
// body — is converted into an ordinary unit error so the failure
// policy applies to it like to any other failure.
func (b *benchRun) protect(unit string, t uint64, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s unit of %s panicked: %v", unit, b.t.Name, r)
		}
	}()
	if d := b.opts.Faults.Delay(b.t.Name, unit, t); d > 0 {
		select {
		case <-time.After(d):
		case <-b.s.Done():
		}
	}
	if msg, ok := b.opts.Faults.PanicMessage(b.t.Name, unit, t); ok {
		panic(msg)
	}
	return f()
}

// recordFailure appends one absorbed failure under the result lock.
// The append happens before the failing unit retires its work items,
// and finishItem takes the same lock, so when the last item retires
// and onDone publishes the result every failure is visible.
func (b *benchRun) recordFailure(unit string, t uint64, attempts int, err error) {
	b.mu.Lock()
	b.out.Failures = append(b.out.Failures, UnitFailure{
		Bench:    b.t.Name,
		Unit:     unit,
		T:        t,
		Attempts: attempts,
		Err:      err.Error(),
	})
	b.mu.Unlock()
}

// cancelRef retires everything the reference unit owes when it fails:
// its own work item, every ladder comparison it would have spawned,
// every sampled-ladder comparison (unreachable without the AVEP
// snapshot), and the training comparison (likewise).
func (b *benchRun) cancelRef() {
	b.retireTrainCompareOnce()
	for range b.opts.Thresholds {
		b.finishItem()
	}
	for range b.opts.SamplePeriods {
		b.finishItem()
	}
	b.finishItem()
}

// cancelTrain retires the training unit's item and the training
// comparison when the training run fails.
func (b *benchRun) cancelTrain() {
	b.retireTrainCompareOnce()
	b.finishItem()
}

// cancelAll retires every work item of a benchmark none of whose units
// can run (no builder).
func (b *benchRun) cancelAll() {
	b.cancelRef()
	b.cancelTrain()
}

// retireTrainCompareOnce retires the training-comparison work item if
// it has not yet run and never will. The trainCompared flag guards the
// case where both run units fail and each tries to retire it.
func (b *benchRun) retireTrainCompareOnce() {
	b.mu.Lock()
	retire := !b.trainCompared
	if retire {
		b.trainCompared = true
	}
	b.mu.Unlock()
	if retire {
		b.finishItem()
	}
}

// suiteObserver adapts a predict.Suite to the dbt trace observer: one
// Record call per resolved conditional branch, in architectural order.
type suiteObserver struct{ suite *predict.Suite }

func (o suiteObserver) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		o.suite.Record(ev.PC, ev.Taken)
	}
}

// newPredictSuite builds the requested predictor set and its trace
// observer. Unknown names are a unit error here — study.Config and the
// flag layer validate earlier, so this guards direct API use.
func newPredictSuite(names []string) (*predict.Suite, []dbt.TraceObserver, error) {
	if len(names) == 0 {
		return nil, nil, nil
	}
	suite, err := predict.NewSuite(names)
	if err != nil {
		return nil, nil, err
	}
	return suite, []dbt.TraceObserver{suiteObserver{suite}}, nil
}

// newLearnedCollector extracts the static branch-site features and
// builds the tally observer for the learned predictor class. It returns
// no observer when the class is off. Extraction is pure static analysis
// of the image (internal/cfg + a successor-closure walk), traced under
// its own flight-recorder unit.
func (b *benchRun) newLearnedCollector(img *guest.Image, worker int) (*learned.Collector, []dbt.TraceObserver, error) {
	if b.opts.Learned == nil {
		return nil, nil, nil
	}
	start := time.Now()
	sites, err := learned.ExtractSites(img)
	b.record(obs.UnitLearnedCollect, 0, worker, start, 0, err)
	if err != nil {
		return nil, nil, fmt.Errorf("core: learned feature extraction of %s: %w", b.t.Name, err)
	}
	col := learned.NewCollector(sites)
	return col, []dbt.TraceObserver{col}, nil
}

// distinctRungs deduplicates the threshold ladder: a ladder scaled far
// down collapses — several paper-unit rungs clamp to the same effective
// threshold — and identical configs would run identical engines. It
// returns the distinct thresholds in first-appearance order and
// rungs[j], the ladder indexes served by distinct[j]; results computed
// once per distinct threshold fan out to every collapsed rung under its
// own paper-unit label.
func (b *benchRun) distinctRungs() (distinct []uint64, rungs [][]int) {
	byThreshold := make(map[uint64]int, len(b.opts.Thresholds))
	for i, threshold := range b.opts.Thresholds {
		if j, ok := byThreshold[threshold]; ok {
			rungs[j] = append(rungs[j], i)
			continue
		}
		byThreshold[threshold] = len(rungs)
		rungs = append(rungs, []int{i})
		distinct = append(distinct, threshold)
	}
	return distinct, rungs
}

// sampleConfigs builds one sampled-profiling period's configs over the
// distinct thresholds: the INIP(T) config with the sampling stride
// switched on.
func (b *benchRun) sampleConfigs(period uint64, distinct []uint64) []dbt.Config {
	cfgs := make([]dbt.Config, len(distinct))
	for j, threshold := range distinct {
		cfg := b.dbtConfig("ref", threshold, true)
		cfg.SamplePeriod = period
		cfg.SampleSeed = b.opts.SampleSeed
		cfgs[j] = cfg
	}
	return cfgs
}

// refUnit produces the AVEP snapshot and every INIP(T) snapshot in one
// guest execution, then fans out the comparison units.
func (b *benchRun) refUnit(worker int) error {
	_, err := b.execute(obs.UnitRef, 0, worker, b.cancelRef, func() error {
		return b.refBody(worker)
	})
	return err
}

// refBody looks up the ref, bp, ls and sp cache entries; when all of
// them hit it replays the bundle, otherwise it runs the union of every
// config and observer over one guest execution and settles each entry.
func (b *benchRun) refBody(worker int) error {
	start := time.Now()
	img, tape, err := b.build.get("ref")
	b.record(obs.UnitBuild, 0, worker, start, 0, err)
	if err != nil {
		return err
	}
	useCache := b.cacheUsable()
	if useCache {
		b.refImgHash = img.ContentHash()
	}

	// Dynamic predictors observe the reference trace; their tally is
	// threshold-independent and lives under its own cache entry, so a
	// warm rerun replays it without executing a guest block. A bp miss
	// with a warm reference entry falls back to the cold path — the
	// trace must be re-executed once to feed the predictors.
	preds := b.opts.Predictors
	var bpKey resultcache.Key
	var bpCached bpEntry
	bpHit := false
	if useCache && len(preds) > 0 {
		bpKey = b.bpCacheKey(b.refImgHash)
		bpHit = b.cacheLookup(bpKey, &bpCached, worker) && bpEntryMatches(&bpCached, preds)
	}

	// The learned-predictor collection rides the same trace under its
	// own threshold-independent entry, exactly like bp: a warm rerun
	// replays it, a miss forces the cold path so the tallies can be
	// re-observed.
	var lsKey resultcache.Key
	var lsCached lsEntry
	lsHit := false
	if useCache && b.opts.Learned != nil {
		lsKey = b.lsCacheKey(b.refImgHash)
		lsHit = b.cacheLookup(lsKey, &lsCached, worker) &&
			lsEntryMatches(&lsCached, b.opts.Learned.Fingerprint(), b.t.Name)
	}

	// Deduplicate the ladder (see distinctRungs): one follower per
	// distinct threshold, shared results fanned out to every collapsed
	// rung.
	distinct, rungs := b.distinctRungs()
	avepCfg := b.dbtConfig("ref", 0, false)
	cfgs := make([]dbt.Config, 0, len(distinct)+1)
	cfgs = append(cfgs, avepCfg)
	for _, threshold := range distinct {
		cfgs = append(cfgs, b.dbtConfig("ref", threshold, true))
	}
	// Sampled ladders ride the same reference trace as additional
	// followers — the guest still executes exactly once — and each
	// period has its own cache entry, so the sweep warms incrementally
	// and the main reference bundle's entry stays byte-identical to a
	// run without sampling.
	periods := b.opts.SamplePeriods
	spCfgs := make([][]dbt.Config, len(periods))
	spKeys := make([]resultcache.Key, len(periods))
	spCached := make([]spEntry, len(periods))
	spHits := make([]bool, len(periods))
	allSpHit := true
	for pi, period := range periods {
		spCfgs[pi] = b.sampleConfigs(period, distinct)
		if useCache {
			spKeys[pi] = b.spCacheKey(b.refImgHash, period, spCfgs[pi])
			spHits[pi] = b.cacheLookup(spKeys[pi], &spCached[pi], worker) && spEntryMatches(&spCached[pi], period, spCfgs[pi])
		}
		allSpHit = allSpHit && spHits[pi]
	}
	var key resultcache.Key
	var cached refEntry
	hit := false
	if useCache {
		key = b.refCacheKey(b.refImgHash, cfgs)
		hit = b.cacheLookup(key, &cached, worker) && refEntryMatches(&cached, cfgs)
	}

	var avep *profile.Snapshot
	var avepCycles float64
	var outs []runOutput
	spOuts := make([][]runOutput, len(periods))
	if hit && (len(preds) == 0 || bpHit) && (b.opts.Learned == nil || lsHit) && allSpHit && !b.opts.CacheVerify {
		// Warm path: replay the whole reference bundle without
		// executing a single guest block. addRunStats is deliberately
		// not called — a fully cached benchmark reports zero blocks.
		if len(preds) > 0 {
			b.out.Predictors = bpCached.Results
		}
		if b.opts.Learned != nil {
			data := lsCached.Data
			b.out.Learned = &data
		}
		avep, avepCycles, outs = cached.AVEP, cached.AVEPCycles, cached.Runs
		for pi := range periods {
			spOuts[pi] = spCached[pi].Runs
		}
	} else {
		suite, observers, err := newPredictSuite(preds)
		if err != nil {
			return err
		}
		col, lobs, err := b.newLearnedCollector(img, worker)
		if err != nil {
			return err
		}
		observers = append(observers, lobs...)
		runCfgs := cfgs
		for _, sc := range spCfgs {
			runCfgs = append(runCfgs, sc...)
		}
		start = time.Now()
		snaps, stats, err := dbt.RunMultiObserved(img, tape, runCfgs, observers)
		if err != nil {
			err = fmt.Errorf("core: reference runs of %s: %w", b.t.Name, err)
			b.record(obs.UnitRef, 0, worker, start, 0, err)
			return err
		}
		for _, st := range stats {
			b.addRunStats(st)
		}
		b.recordRun(obs.UnitRef, 0, worker, start, stats...)
		output := func(k int) runOutput {
			cfg := runCfgs[k]
			return runOutput{T: cfg.Threshold, Snapshot: snaps[k], Stats: *stats[k], Cycles: cyclesOf(cfg)}
		}
		avep, avepCycles = snaps[0], cyclesOf(avepCfg)
		outs = make([]runOutput, len(rungs))
		for j := range rungs {
			outs[j] = output(1 + j)
		}
		for pi := range periods {
			spOuts[pi] = make([]runOutput, len(rungs))
			for j := range rungs {
				k := 1 + (pi+1)*len(rungs) + j
				spOuts[pi][j] = output(k)
				b.addSampleStats(snaps[k])
			}
		}
		if suite != nil {
			b.out.Predictors = suite.Results()
		}
		if col != nil {
			data := col.BenchData(b.t.Name)
			b.out.Learned = &data
		}
		// Settle every entry (store on a miss, check on a verify-mode
		// hit) before any comparison is spawned, so a failed check fails
		// the unit while every ladder item is still its own to retire.
		if useCache {
			if err := b.cacheSettle(key, hit, refEntry{AVEP: avep, AVEPStats: *stats[0], AVEPCycles: avepCycles, Runs: outs}, cached, worker); err != nil {
				return err
			}
			if suite != nil {
				if err := b.cacheSettle(bpKey, bpHit, bpEntry{Results: b.out.Predictors}, bpCached, worker); err != nil {
					return err
				}
			}
			if col != nil {
				if err := b.cacheSettle(lsKey, lsHit, lsEntry{Fingerprint: b.opts.Learned.Fingerprint(), Data: *b.out.Learned}, lsCached, worker); err != nil {
					return err
				}
			}
			for pi, period := range periods {
				if err := b.cacheSettle(spKeys[pi], spHits[pi], spEntry{Period: period, Runs: spOuts[pi]}, spCached[pi], worker); err != nil {
					return err
				}
			}
		}
	}
	b.recordAVEP(avep, avepCycles)
	for j := range rungs {
		idxs, ro := rungs[j], outs[j]
		b.s.GoW(func(w int) error { return b.compareUnit(idxs, ro, w) })
	}
	for pi := range periods {
		spo := spOuts[pi]
		b.s.GoW(func(w int) error { return b.sampleCompareUnit(pi, rungs, spo, w) })
	}
	b.maybeCompareTrain(worker)
	b.finishItem()
	return nil
}

// recordAVEP fills the once-per-benchmark memo the comparison stages
// read. The write happens before any comparison unit is spawned, which
// is what makes the lock-free reads in compareUnit safe.
func (b *benchRun) recordAVEP(avep *profile.Snapshot, cycles float64) {
	b.out.AVEP = avep
	b.out.AVEPCycles = cycles
	b.mu.Lock()
	b.avep = avep
	b.mu.Unlock()
}

// compareUnit is the scheduled comparison of one distinct threshold.
// Its failure retires every ladder item it serves.
func (b *benchRun) compareUnit(idxs []int, ro runOutput, worker int) error {
	_, err := b.execute(obs.UnitCompare, ro.T, worker, func() {
		for range idxs {
			b.finishItem()
		}
	}, func() error {
		return b.compareBody(idxs, ro, worker)
	})
	return err
}

// compareBody evaluates one INIP(T) snapshot against the AVEP memo and
// writes every ladder entry it serves — several when collapsed rungs
// share a follower (indexes are rung-owned, no lock needed). The comparison runs once; collapsed
// rungs receive identical results under their own paper-unit labels.
//
// The comparison itself is cacheable: its inputs are fully determined
// by the two runs' keys, so a warm hit skips the normalization — unless
// the caller wants the normalized rows (KeepNormalized), which the
// cache does not carry.
func (b *benchRun) compareBody(idxs []int, ro runOutput, worker int) error {
	useCache := b.cacheUsable() && !b.opts.KeepNormalized
	var key resultcache.Key
	var cached cmpEntry
	hit := false
	if useCache {
		key = b.cmpCacheKey(ro.T)
		hit = b.cacheLookup(key, &cached, worker)
		if hit && !b.opts.CacheVerify {
			b.publishThresholdResults(idxs, ro, cached.Summary, nil)
			return nil
		}
	}
	start := time.Now()
	summary, norm, err := Compare(ro.Snapshot, b.out.AVEP)
	if err != nil {
		err = fmt.Errorf("core: INIP(%d) comparison of %s: %w", ro.T, b.t.Name, err)
		b.record(obs.UnitCompare, ro.T, worker, start, 0, err)
		return err
	}
	b.record(obs.UnitCompare, ro.T, worker, start, 0, nil)
	if useCache {
		if err := b.cacheSettle(key, hit, cmpEntry{Summary: summary}, cached, worker); err != nil {
			return err
		}
	}
	b.publishThresholdResults(idxs, ro, summary, norm)
	return nil
}

// publishThresholdResults writes one ladder entry per served rung index
// and retires the matching work items (indexes are rung-owned, so the
// writes need no lock).
func (b *benchRun) publishThresholdResults(idxs []int, ro runOutput, summary metrics.Summary, norm *navep.Result) {
	for _, i := range idxs {
		tr := ThresholdResult{
			T:            b.opts.Thresholds[i],
			Summary:      summary,
			ProfilingOps: ro.Snapshot.ProfilingOps,
			Cycles:       ro.Cycles,
			Stats:        ro.Stats,
		}
		if b.opts.KeepNormalized {
			tr.Normalized = norm
		}
		if b.opts.KeepSnapshots {
			tr.Snapshot = ro.Snapshot
		}
		b.out.Results[i] = tr
		b.finishItem()
	}
}

// sampleCompareUnit is the scheduled sampled-ladder comparison of one
// period. Its failure retires exactly its period's item.
func (b *benchRun) sampleCompareUnit(pi int, rungs [][]int, outs []runOutput, worker int) error {
	period := b.opts.SamplePeriods[pi]
	_, err := b.execute(obs.UnitSampleCompare, period, worker, b.finishItem, func() error {
		return b.sampleCompareBody(pi, period, rungs, outs, worker)
	})
	return err
}

// sampleCompareBody evaluates one period's sampled ladder against the
// AVEP memo and publishes the period's result (the index is
// period-owned, so the write needs no lock). Only the runs are cached —
// the comparisons are recomputed even on a warm rerun, which still
// executes zero guest blocks and pays only the cheap normalizations.
func (b *benchRun) sampleCompareBody(pi int, period uint64, rungs [][]int, outs []runOutput, worker int) error {
	start := time.Now()
	perT := make([]SampleThresholdResult, len(b.opts.Thresholds))
	for j, ro := range outs {
		summary, _, err := Compare(ro.Snapshot, b.out.AVEP)
		if err != nil {
			err = fmt.Errorf("core: sampled INIP(%d) comparison (period %d) of %s: %w", ro.T, period, b.t.Name, err)
			b.record(obs.UnitSampleCompare, period, worker, start, 0, err)
			return err
		}
		for _, i := range rungs[j] {
			perT[i] = SampleThresholdResult{
				T:            b.opts.Thresholds[i],
				Summary:      summary,
				ProfilingOps: ro.Snapshot.ProfilingOps,
				Cycles:       ro.Cycles,
			}
		}
	}
	b.record(obs.UnitSampleCompare, period, worker, start, 0, nil)
	b.out.Sampling[pi] = SamplePeriodResult{Period: period, PerT: perT}
	b.finishItem()
	return nil
}

// trainUnit runs INIP(train) and stores its snapshot for the training
// comparison.
func (b *benchRun) trainUnit(worker int) error {
	_, err := b.execute(obs.UnitTrain, 0, worker, b.cancelTrain, func() error {
		return b.trainBody(worker)
	})
	return err
}

func (b *benchRun) trainBody(worker int) error {
	start := time.Now()
	img, tape, err := b.build.get("train")
	b.record(obs.UnitBuild, 0, worker, start, 0, err)
	if err != nil {
		return err
	}
	cfg := b.dbtConfig("train", 0, false)
	useCache := b.cacheUsable()
	var key resultcache.Key
	var cached runOutput
	hit := false
	if useCache {
		b.trainImgHash = img.ContentHash()
		key = b.runCacheKey(b.trainImgHash, "train", cfg)
		hit = b.cacheLookup(key, &cached, worker) && cached.Snapshot != nil
	}
	var train *profile.Snapshot
	if hit && !b.opts.CacheVerify {
		train = cached.Snapshot
	} else {
		start = time.Now()
		var stats *dbt.RunStats
		train, stats, err = dbt.Run(img, tape, cfg)
		if err != nil {
			err = fmt.Errorf("core: train run of %s: %w", b.t.Name, err)
			b.record(obs.UnitTrain, 0, worker, start, 0, err)
			return err
		}
		b.addRunStats(stats)
		b.recordRun(obs.UnitTrain, 0, worker, start, stats)
		if useCache {
			computed := runOutput{Snapshot: train, Stats: *stats, Cycles: cyclesOf(cfg)}
			if err := b.cacheSettle(key, hit, computed, cached, worker); err != nil {
				return err
			}
		}
	}
	b.out.TrainOps = train.ProfilingOps
	b.mu.Lock()
	b.train = train
	b.mu.Unlock()
	b.maybeCompareTrain(worker)
	b.finishItem()
	return nil
}

// maybeCompareTrain runs the training comparison in whichever run unit
// finishes second — at that point it already holds a pool slot, so the
// work runs inline instead of being queued. It settles its own work
// item: retired on success or absorbed failure, left outstanding on a
// propagated failure (the pool is collapsing and onDone must not
// fire).
func (b *benchRun) maybeCompareTrain(worker int) {
	b.mu.Lock()
	ready := b.avep != nil && b.train != nil && !b.trainCompared
	if ready {
		b.trainCompared = true
	}
	train := b.train
	b.mu.Unlock()
	if !ready {
		return
	}
	_, err := b.execute(obs.UnitTrainCompare, 0, worker, func() {}, func() error {
		return b.compareTrain(train, worker)
	})
	if err != nil {
		b.s.fail(err)
		return
	}
	b.finishItem()
}

// trainRegionThreshold is the reference threshold for offline region
// formation over the training profile: the paper's proposed extension
// for obtaining Sd.CP(train) and Sd.LP(train). It participates in the
// training comparison's cache key.
const trainRegionThreshold = 2000

func (b *benchRun) compareTrain(train *profile.Snapshot, worker int) error {
	useCache := b.cacheUsable()
	var key resultcache.Key
	var cached trainCmpEntry
	hit := false
	if useCache {
		key = b.trainCmpCacheKey()
		hit = b.cacheLookup(key, &cached, worker)
		if hit && !b.opts.CacheVerify {
			b.out.Train = cached.Train
			b.out.TrainRegions = cached.TrainRegions
			return nil
		}
	}
	start := time.Now()
	var err error
	if b.out.Train, _, err = Compare(train, b.out.AVEP); err != nil {
		err = fmt.Errorf("core: train comparison of %s: %w", b.t.Name, err)
		b.record(obs.UnitTrainCompare, 0, worker, start, 0, err)
		return err
	}
	trainWithRegions := region.WithOfflineRegions(train, trainRegionThreshold, region.Config{})
	if b.out.TrainRegions, _, err = Compare(trainWithRegions, b.out.AVEP); err != nil {
		err = fmt.Errorf("core: train region comparison of %s: %w", b.t.Name, err)
		b.record(obs.UnitTrainCompare, 0, worker, start, 0, err)
		return err
	}
	b.record(obs.UnitTrainCompare, 0, worker, start, 0, nil)
	if useCache {
		return b.cacheSettle(key, hit, trainCmpEntry{Train: b.out.Train, TrainRegions: b.out.TrainRegions}, cached, worker)
	}
	return nil
}

// RunBenchmark executes the full three-way study for one target: AVEP
// and INIP(train) once, then INIP(T) for every threshold in the ladder.
// It is a self-contained wrapper around ScheduleBenchmark with a private
// scheduler; studies share one scheduler across benchmarks instead.
func RunBenchmark(t Target, opts Options) (*BenchmarkResult, error) {
	s := NewScheduler(opts.Workers)
	var out *BenchmarkResult
	ScheduleBenchmark(s, t, opts, func(r *BenchmarkResult) { out = r })
	if err := s.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// CollectLearnedData runs the learned-predictor collection pass for one
// target outside the full study pipeline: extract the static branch
// sites, execute the reference input once under a plain (unoptimized,
// threshold-free) config, and tally outcomes. It shares the study
// pipeline's `ls` cache entries — same key, same payload — so a daemon
// assembling a training corpus and a study sweeping the same scale warm
// each other, and a warm call executes zero guest blocks. Only Cache,
// CacheContext, CacheVerify, Trace and Faults are honored from opts.
func CollectLearnedData(t Target, lcfg learned.Config, opts Options) (*learned.BenchData, error) {
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	opts.Learned = &lcfg
	b := &benchRun{t: t, opts: opts, out: &BenchmarkResult{Name: t.Name}, build: newBuildCache(t, opts.Faults)}
	const worker = 0
	start := time.Now()
	img, tape, err := b.build.get("ref")
	b.record(obs.UnitBuild, 0, worker, start, 0, err)
	if err != nil {
		return nil, err
	}
	useCache := b.cacheUsable()
	var lsKey resultcache.Key
	var lsCached lsEntry
	lsHit := false
	if useCache {
		b.refImgHash = img.ContentHash()
		lsKey = b.lsCacheKey(b.refImgHash)
		lsHit = b.cacheLookup(lsKey, &lsCached, worker) &&
			lsEntryMatches(&lsCached, lcfg.Fingerprint(), t.Name)
		if lsHit && !opts.CacheVerify {
			data := lsCached.Data
			return &data, nil
		}
	}
	col, observers, err := b.newLearnedCollector(img, worker)
	if err != nil {
		return nil, err
	}
	// No scheduler here, so build the config at the Options level (no
	// cancellation channel to attach); the fault trap still arms so
	// perturbed runs stay out of the cache like everywhere else.
	cfg := b.opts.dbtConfig("ref", 0, false)
	if n, ok := b.opts.Faults.Trap(t.Name, "ref"); ok {
		cfg.TrapAfter = n
	}
	start = time.Now()
	_, stats, err := dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, observers)
	if err != nil {
		err = fmt.Errorf("core: learned collection run of %s: %w", t.Name, err)
		b.record(obs.UnitRef, 0, worker, start, 0, err)
		return nil, err
	}
	b.addRunStats(stats[0])
	b.recordRun(obs.UnitRef, 0, worker, start, stats...)
	data := col.BenchData(t.Name)
	if useCache {
		if err := b.cacheSettle(lsKey, lsHit, lsEntry{Fingerprint: lcfg.Fingerprint(), Data: data}, lsCached, worker); err != nil {
			return nil, err
		}
	}
	return &data, nil
}

// BuildFromAsm is a convenience Target builder for fixed assembler
// programs whose behaviour differs between inputs only through the tape
// seed.
func BuildFromAsm(name, src string) Target {
	return Target{
		Name: name,
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			img, err := guest.Assemble(src)
			if err != nil {
				return nil, nil, err
			}
			img.Name = name
			return img, interp.NewUniformTape(name + "/" + input), nil
		},
		NewTape: func(input string) (interp.Tape, error) {
			return interp.NewUniformTape(name + "/" + input), nil
		},
		TapeID: func(input string) string {
			return "uniform:" + name + "/" + input
		},
	}
}
