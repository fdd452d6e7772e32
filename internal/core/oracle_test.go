package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/navep"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// oracleTrainRegionThreshold mirrors the pipeline's offline
// region-formation threshold for the training comparison.
const oracleTrainRegionThreshold = 2000

// oracleConfig derives one run's translator config from the options
// the way the pipeline documents it: register-twice on unless disabled,
// and a fresh cycle-model accumulator per run when Perf is on.
func oracleConfig(opts core.Options, input string, threshold uint64, optimize bool) dbt.Config {
	cfg := dbt.Config{
		Input:         input,
		Threshold:     threshold,
		Optimize:      optimize,
		PoolTrigger:   opts.PoolTrigger,
		RegisterTwice: !opts.NoRegisterTwice,
		DisableFreeze: opts.DisableFreeze,
		MaxBlockExecs: opts.MaxBlockExecs,
	}
	if opts.Perf {
		params := opts.PerfParams
		if params == (perfmodel.Params{}) {
			params = perfmodel.DefaultParams()
		}
		cfg.Perf = perfmodel.NewAccumulator(params)
	}
	return cfg
}

// suiteObserver feeds a predictor suite from the branch stream.
type suiteObserver struct{ suite *predict.Suite }

func (o suiteObserver) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		o.suite.Record(ev.PC, ev.Taken)
	}
}

// serialOracle computes, the slow way, the BenchmarkResult RunBenchmark
// must produce. Every configuration — AVEP, training, each ladder rung
// including collapsed duplicates, and each sampled rung — executes the
// guest itself on a fresh build through dbt.Run. Nothing is shared,
// replayed, deduplicated or cached, so a defect in any of those cannot
// agree with itself. When predictors or the learned collection are
// requested, AVEP runs as a single-config dbt.RunMultiObserved: the same
// driver loop as dbt.Run with the branch stream exposed.
func serialOracle(t *testing.T, target core.Target, opts core.Options) *core.BenchmarkResult {
	t.Helper()
	run := func(cfg dbt.Config, observers []dbt.TraceObserver) (*profile.Snapshot, dbt.RunStats, float64) {
		t.Helper()
		img, tape, err := target.Build(cfg.Input)
		if err != nil {
			t.Fatal(err)
		}
		var snap *profile.Snapshot
		var stats *dbt.RunStats
		if len(observers) == 0 {
			snap, stats, err = dbt.Run(img, tape, cfg)
		} else {
			var snaps []*profile.Snapshot
			var statss []*dbt.RunStats
			snaps, statss, err = dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, observers)
			if err == nil {
				snap, stats = snaps[0], statss[0]
			}
		}
		if err != nil {
			t.Fatalf("oracle %s run (T=%d, period %d): %v", cfg.Input, cfg.Threshold, cfg.SamplePeriod, err)
		}
		cycles := 0.0
		if cfg.Perf != nil {
			cycles = cfg.Perf.Cycles
		}
		return snap, *stats, cycles
	}
	out := &core.BenchmarkResult{Name: target.Name}

	var observers []dbt.TraceObserver
	var suite *predict.Suite
	if len(opts.Predictors) > 0 {
		var err error
		if suite, err = predict.NewSuite(opts.Predictors); err != nil {
			t.Fatal(err)
		}
		observers = append(observers, suiteObserver{suite})
	}
	var col *learned.Collector
	if opts.Learned != nil {
		img, _, err := target.Build("ref")
		if err != nil {
			t.Fatal(err)
		}
		sites, err := learned.ExtractSites(img)
		if err != nil {
			t.Fatal(err)
		}
		col = learned.NewCollector(sites)
		observers = append(observers, col)
	}
	out.AVEP, _, out.AVEPCycles = run(oracleConfig(opts, "ref", 0, false), observers)
	if suite != nil {
		out.Predictors = suite.Results()
	}
	if col != nil {
		data := col.BenchData(target.Name)
		out.Learned = &data
	}
	compare := func(snap *profile.Snapshot) (metrics.Summary, *navep.Result) {
		t.Helper()
		sum, norm, err := core.Compare(snap, out.AVEP)
		if err != nil {
			t.Fatal(err)
		}
		return sum, norm
	}

	train, _, _ := run(oracleConfig(opts, "train", 0, false), nil)
	out.Train, _ = compare(train)
	out.TrainRegions, _ = compare(region.WithOfflineRegions(train, oracleTrainRegionThreshold, region.Config{}))
	out.TrainOps = train.ProfilingOps

	out.Results = make([]core.ThresholdResult, len(opts.Thresholds))
	for i, threshold := range opts.Thresholds {
		snap, stats, cycles := run(oracleConfig(opts, "ref", threshold, true), nil)
		sum, norm := compare(snap)
		r := core.ThresholdResult{T: threshold, Summary: sum, ProfilingOps: snap.ProfilingOps, Cycles: cycles, Stats: stats}
		if opts.KeepNormalized {
			r.Normalized = norm
		}
		if opts.KeepSnapshots {
			r.Snapshot = snap
		}
		out.Results[i] = r
	}
	for _, period := range opts.SamplePeriods {
		sp := core.SamplePeriodResult{Period: period}
		for _, threshold := range opts.Thresholds {
			cfg := oracleConfig(opts, "ref", threshold, true)
			cfg.SamplePeriod = period
			cfg.SampleSeed = opts.SampleSeed
			snap, _, cycles := run(cfg, nil)
			sum, _ := compare(snap)
			sp.PerT = append(sp.PerT, core.SampleThresholdResult{T: threshold, Summary: sum, ProfilingOps: snap.ProfilingOps, Cycles: cycles})
		}
		out.Sampling = append(out.Sampling, sp)
	}
	return out
}

// checkOracle fails the test unless got equals the oracle, naming every
// BenchmarkResult field that differs.
func checkOracle(t *testing.T, label string, got, want *core.BenchmarkResult) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	var fields []string
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			fields = append(fields, gv.Type().Field(i).Name)
		}
	}
	t.Fatalf("%s: result differs from the serial oracle in %v", label, fields)
}

// TestSharedTraceMatchesSerialOracle: the shared-trace pipeline — one
// guest execution, deduplicated followers, observers, sampled followers
// — produces exactly the result of running every configuration on its
// own, at any worker count. A difference is a product defect.
func TestSharedTraceMatchesSerialOracle(t *testing.T) {
	lc := learned.DefaultConfig()
	// At this scale the paper ladder collapses onto a few effective
	// thresholds, so the fan-out to duplicate rungs is exercised too.
	_, ladder := study.EffectiveLadder(study.AllThresholds, 0.001)
	axes := core.Options{
		Thresholds:    ladder,
		Perf:          true,
		Predictors:    predict.Names(),
		Learned:       &lc,
		SamplePeriods: []uint64{1, 4, 16},
	}
	cases := []struct {
		name   string
		target core.Target
		opts   core.Options
	}{
		{"counter", core.BuildFromAsm("modes", core.CounterProgram()),
			core.Options{Thresholds: []uint64{20, 50, 50, 100}, Perf: true, KeepNormalized: true}},
		{"gzip", spec.ByName("gzip").Target(0.001), axes},
		{"mesa", spec.ByName("mesa").Target(0.001), axes},
		{"vpr", spec.ByName("vpr").Target(0.001), axes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := serialOracle(t, tc.target, tc.opts)
			for _, workers := range []int{1, 4} {
				o := tc.opts
				o.Workers = workers
				got, err := core.RunBenchmark(tc.target, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				checkOracle(t, fmt.Sprintf("workers=%d", workers), got, want)
			}
		})
	}
}

// TestLadderCollapseDedup: rungs that collapse onto one effective
// threshold run one follower, and the fanned-out result equals both the
// distinct ladder's and genuine repeat runs'.
func TestLadderCollapseDedup(t *testing.T) {
	target := core.BuildFromAsm("collapse", core.CounterProgram())
	collapsed := []uint64{50, 50, 50, 100}
	distinct := []uint64{50, 100}

	runWith := func(ladder []uint64) (*core.BenchmarkResult, *core.Timing) {
		var tm core.Timing
		res, err := core.RunBenchmark(target, core.Options{Thresholds: ladder, Perf: true, Timing: &tm})
		if err != nil {
			t.Fatalf("ladder %v: %v", ladder, err)
		}
		return res, &tm
	}
	dup, dupTm := runWith(collapsed)
	ded, dedTm := runWith(distinct)

	// Every collapsed rung carries the shared result under its own label.
	for i, wantT := range collapsed {
		if dup.Results[i].T != wantT {
			t.Fatalf("Results[%d].T = %d, want %d", i, dup.Results[i].T, wantT)
		}
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(dup.Results[0], dup.Results[i]) {
			t.Fatalf("collapsed rungs 0 and %d differ", i)
		}
	}
	if !reflect.DeepEqual(dup.Results[0], ded.Results[0]) || !reflect.DeepEqual(dup.Results[3], ded.Results[1]) {
		t.Fatal("collapsed ladder results differ from the distinct ladder")
	}

	// Dedup is real work saved: the duplicated ladder executes exactly
	// as many blocks as the distinct one.
	if got, want := dupTm.BlocksExecuted.Load(), dedTm.BlocksExecuted.Load(); got != want {
		t.Fatalf("deduped ladder executed %d blocks, distinct ladder %d", got, want)
	}

	// And the fan-out copies what genuine repeat runs produce.
	checkOracle(t, "collapsed ladder", dup, serialOracle(t, target, core.Options{Thresholds: collapsed, Perf: true}))
}

// TestCacheWarmMatchesSerialOracle: a cold cached run and a warm rerun
// from a fresh store handle, with every cached axis on, both equal the
// serial oracle, and the warm run executes no guest block.
func TestCacheWarmMatchesSerialOracle(t *testing.T) {
	dir := t.TempDir()
	target := core.BuildFromAsm("phased", core.PhasedSrc(4000, 1000, 7782, 819))
	lc := learned.DefaultConfig()
	opts := core.Options{
		Thresholds:    []uint64{4, 16},
		Perf:          true,
		Predictors:    predict.Names(),
		Learned:       &lc,
		SamplePeriods: []uint64{4},
		CacheContext:  "test",
	}
	want := serialOracle(t, target, opts)
	for _, pass := range []string{"cold", "warm"} {
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Cache = store
		o.Timing = &core.Timing{}
		got, err := core.RunBenchmark(target, o)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		checkOracle(t, pass, got, want)
		if n := o.Timing.BlocksExecuted.Load(); pass == "warm" && n != 0 {
			t.Fatalf("warm run executed %d guest blocks, want 0", n)
		}
	}
}
