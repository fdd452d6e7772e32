package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/spec"
	"repro/internal/study"
)

// The correctness oracle. Expected results are generated once, from the
// serial per-config path — every configuration executes the guest
// itself through dbt.Run — and stored gzipped beside the benchmark. The
// timed workloads run the shared-trace pipeline (one driver, many
// replaying followers) and never call this path, so a defect in replay
// cannot agree with itself.

// trainRegionThreshold mirrors the pipeline's offline region-formation
// threshold for the training comparison (an effective value, not
// scaled).
const trainRegionThreshold = 2000

// expectedFile is one workload's stored oracle.
type expectedFile struct {
	Workload string `json:"workload"`
	// Config describes the workload definition the oracle was generated
	// for; a mismatch means the file is stale.
	Config string `json:"config"`
	// Series holds each benchmark's expected study series (suites).
	Series map[string]json.RawMessage `json:"series,omitempty"`
	// Bodies holds the expected /v1/compare body per request key
	// (serve_mix).
	Bodies map[string]json.RawMessage `json:"bodies,omitempty"`

	// learned is decoded from Series at set-up when the workload fits
	// the learned model.
	learned map[string]learned.BenchData
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, "expected", workload+".json.gz")
}

func loadExpected(dir, workload, config string) (*expectedFile, error) {
	f, err := os.Open(expectedPath(dir, workload))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	var exp expectedFile
	if err := json.NewDecoder(zr).Decode(&exp); err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	if exp.Config != config {
		return nil, fmt.Errorf("%s is stale: generated for %q, workload is %q (regenerate with -gen)", f.Name(), exp.Config, config)
	}
	return &exp, nil
}

func writeExpected(dir string, exp *expectedFile) error {
	path := expectedPath(dir, exp.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(exp); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perfConfig is the translator config every pipeline run uses: the
// cycle model on, register-twice on, default pool trigger.
func perfConfig(input string, threshold uint64, optimize bool) dbt.Config {
	return dbt.Config{
		Input:         input,
		Threshold:     threshold,
		Optimize:      optimize,
		RegisterTwice: true,
		Perf:          perfmodel.NewAccumulator(perfmodel.DefaultParams()),
	}
}

// suiteObserver feeds a predictor suite from the branch stream.
type suiteObserver struct{ suite *predict.Suite }

func (o suiteObserver) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		o.suite.Record(ev.PC, ev.Taken)
	}
}

// serialBench is one benchmark's serially computed reference state: the
// AVEP run (carrying the trace observers as a single-config run when
// predictors or the learned collection are requested) and the training
// comparison. INIP(T) runs are made on demand, one dbt.Run each.
type serialBench struct {
	b          *spec.Benchmark
	scale      float64
	img        *guest.Image
	avep       *profile.Snapshot
	avepCycles float64
	preds      []predict.Result
	learned    *learned.BenchData
	train      metrics.Summary
	trainReg   metrics.Summary
	trainOps   uint64
	memo       map[[2]uint64]core.ThresholdResult
}

func newSerialBench(b *spec.Benchmark, scale float64, preds []string, lcfg *learned.Config) (*serialBench, error) {
	img, tape, err := b.Build("ref", scale)
	if err != nil {
		return nil, err
	}
	s := &serialBench{b: b, scale: scale, img: img, memo: map[[2]uint64]core.ThresholdResult{}}
	var observers []dbt.TraceObserver
	var suite *predict.Suite
	if len(preds) > 0 {
		if suite, err = predict.NewSuite(preds); err != nil {
			return nil, err
		}
		observers = append(observers, suiteObserver{suite})
	}
	var col *learned.Collector
	if lcfg != nil {
		sites, err := learned.ExtractSites(img)
		if err != nil {
			return nil, err
		}
		col = learned.NewCollector(sites)
		observers = append(observers, col)
	}
	avepCfg := perfConfig("ref", 0, false)
	if len(observers) == 0 {
		s.avep, _, err = dbt.Run(img, tape, avepCfg)
	} else {
		var snaps []*profile.Snapshot
		snaps, _, err = dbt.RunMultiObserved(img, tape, []dbt.Config{avepCfg}, observers)
		if err == nil {
			s.avep = snaps[0]
		}
	}
	if err != nil {
		return nil, fmt.Errorf("AVEP run of %s: %w", b.Name, err)
	}
	s.avepCycles = avepCfg.Perf.Cycles
	if suite != nil {
		s.preds = suite.Results()
	}
	if col != nil {
		data := col.BenchData(b.Name)
		s.learned = &data
	}

	timg, ttape, err := b.Build("train", scale)
	if err != nil {
		return nil, err
	}
	train, _, err := dbt.Run(timg, ttape, perfConfig("train", 0, false))
	if err != nil {
		return nil, fmt.Errorf("train run of %s: %w", b.Name, err)
	}
	if s.train, _, err = core.Compare(train, s.avep); err != nil {
		return nil, err
	}
	withRegions := region.WithOfflineRegions(train, trainRegionThreshold, region.Config{})
	if s.trainReg, _, err = core.Compare(withRegions, s.avep); err != nil {
		return nil, err
	}
	s.trainOps = train.ProfilingOps
	return s, nil
}

// inip runs INIP(t) on its own (period 0 is full instrumentation) and
// compares it with the AVEP.
func (s *serialBench) inip(t, period uint64) (core.ThresholdResult, error) {
	if r, ok := s.memo[[2]uint64{t, period}]; ok {
		return r, nil
	}
	tape, err := s.b.Target(s.scale).NewTape("ref")
	if err != nil {
		return core.ThresholdResult{}, err
	}
	cfg := perfConfig("ref", t, true)
	cfg.SamplePeriod = period
	snap, stats, err := dbt.Run(s.img, tape, cfg)
	if err != nil {
		return core.ThresholdResult{}, fmt.Errorf("INIP(%d) run of %s: %w", t, s.b.Name, err)
	}
	sum, _, err := core.Compare(snap, s.avep)
	if err != nil {
		return core.ThresholdResult{}, err
	}
	r := core.ThresholdResult{T: t, Summary: sum, ProfilingOps: snap.ProfilingOps, Cycles: cfg.Perf.Cycles, Stats: *stats}
	s.memo[[2]uint64{t, period}] = r
	return r, nil
}

// series assembles the benchmark's study series over the effective
// ladder and the sampled periods.
func (s *serialBench) series(thresholds, periods []uint64) (study.BenchmarkSeries, error) {
	out := &core.BenchmarkResult{
		Name:         s.b.Name,
		AVEPCycles:   s.avepCycles,
		Train:        s.train,
		TrainRegions: s.trainReg,
		TrainOps:     s.trainOps,
		Predictors:   s.preds,
		Learned:      s.learned,
	}
	for _, t := range thresholds {
		r, err := s.inip(t, 0)
		if err != nil {
			return study.BenchmarkSeries{}, err
		}
		out.Results = append(out.Results, r)
	}
	for _, p := range periods {
		sp := core.SamplePeriodResult{Period: p}
		for _, t := range thresholds {
			r, err := s.inip(t, p)
			if err != nil {
				return study.BenchmarkSeries{}, err
			}
			sp.PerT = append(sp.PerT, core.SampleThresholdResult{T: t, Summary: r.Summary, ProfilingOps: r.ProfilingOps, Cycles: r.Cycles})
		}
		out.Sampling = append(out.Sampling, sp)
	}
	return study.SeriesFromResult(s.b, out), nil
}

// forEachBench runs f over the benchmarks on GOMAXPROCS goroutines and
// returns the first error.
func forEachBench(benches []*spec.Benchmark, f func(i int, b *spec.Benchmark) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i, benches[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range benches {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// learnedData decodes the oracle's learned collections by benchmark.
func (e *expectedFile) learnedData() (map[string]learned.BenchData, error) {
	out := map[string]learned.BenchData{}
	for name, raw := range e.Series {
		var s study.BenchmarkSeries
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("oracle series %s: %w", name, err)
		}
		if s.Learned != nil {
			out[name] = *s.Learned
		}
	}
	return out, nil
}
