package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// suiteWorkload is a cold full-suite study: every benchmark, the whole
// AllThresholds ladder, all figures rendered. The seed only permutes
// the order benchmarks are submitted in; results are order-independent.
type suiteWorkload struct {
	name       string
	scale      float64
	predictors []string
	periods    []uint64
	learned    *learned.Config
	// cache gives every repetition a fresh result-cache directory.
	cache bool
	// benches overrides the suite (tests run a tiny subset).
	benches []*spec.Benchmark
}

func suitePaper() *suiteWorkload {
	return &suiteWorkload{name: "suite_paper", scale: 0.02}
}

func suiteAxes() *suiteWorkload {
	return &suiteWorkload{
		name:       "suite_axes",
		scale:      0.005,
		predictors: predict.Names(),
		periods:    []uint64{4, 16, 64},
		learned:    &learned.Config{Model: learned.ModelTree},
		cache:      true,
	}
}

func (w *suiteWorkload) suite() []*spec.Benchmark {
	if w.benches != nil {
		return w.benches
	}
	return spec.Suite()
}

func (w *suiteWorkload) thresholds() []uint64 {
	_, eff := study.EffectiveLadder(study.AllThresholds, w.scale)
	return eff
}

func (w *suiteWorkload) config() string {
	names := make([]string, 0, len(w.suite()))
	for _, b := range w.suite() {
		names = append(names, b.Name)
	}
	lm := ""
	if w.learned != nil {
		lm = w.learned.Fingerprint()
	}
	return fmt.Sprintf("suite scale=%g ladder=%v predictors=%v periods=%v learned=%q benches=%s",
		w.scale, w.thresholds(), w.predictors, w.periods, lm, strings.Join(names, ","))
}

func (w *suiteWorkload) generate() (*expectedFile, error) {
	benches := w.suite()
	exp := &expectedFile{Workload: w.name, Config: w.config(), Series: map[string]json.RawMessage{}}
	series := make([]study.BenchmarkSeries, len(benches))
	err := forEachBench(benches, func(i int, b *spec.Benchmark) error {
		s, err := newSerialBench(b, w.scale, w.predictors, w.learned)
		if err != nil {
			return err
		}
		series[i], err = s.series(w.thresholds(), w.periods)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, s := range series {
		raw, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		exp.Series[s.Name] = raw
	}
	return exp, nil
}

// studyConfig is the configuration of one repetition over the given
// submission order.
func (w *suiteWorkload) studyConfig(order []*spec.Benchmark) study.Config {
	return study.Config{
		Scale:       w.scale,
		Thresholds:  study.AllThresholds,
		Benchmarks:  order,
		Parallelism: workers(),
		Predictors:  w.predictors,
		// Each repetition owns its slice: Run must not share it.
		SamplePeriods: append([]uint64(nil), w.periods...),
		Learned:       w.learned,
	}
}

// completionClock timestamps the study's per-benchmark progress lines:
// the time from submission until a benchmark's series is complete.
type completionClock struct {
	start time.Time
	mu    sync.Mutex
	ms    []float64
}

func (c *completionClock) Write(p []byte) (int, error) {
	if strings.HasPrefix(string(p), "done ") {
		d := time.Since(c.start)
		c.mu.Lock()
		c.ms = append(c.ms, float64(d)/float64(time.Millisecond))
		c.mu.Unlock()
	}
	return len(p), nil
}

// suiteRep is one repetition's outcome.
type suiteRep struct {
	wall      float64
	blocks    uint64
	latencies []float64
	attempted int
	failed    int
	firstDiff string
	res       *study.Results
	cache     resultcache.Counters
	cacheSize int64
}

// rep runs the study once over order, timed from submission until the
// figures are rendered, then checks every series against the oracle.
func (w *suiteWorkload) rep(exp *expectedFile, order []*spec.Benchmark, workDir string, trace *obs.Recorder) (*suiteRep, error) {
	cfg := w.studyConfig(order)
	cfg.Trace = trace
	if w.cache {
		dir, err := os.MkdirTemp(workDir, "cache-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if cfg.Cache, err = resultcache.Open(dir); err != nil {
			return nil, err
		}
	}
	clock := &completionClock{}
	cfg.Progress = clock
	clock.start = time.Now()
	res, err := study.Run(cfg)
	var report string
	if err == nil {
		report = res.TextReport(false)
	}
	wall := time.Since(clock.start).Seconds()
	out := &suiteRep{wall: wall, latencies: clock.ms, res: res, attempted: len(order)}
	if err != nil {
		out.failed = len(order)
		out.firstDiff = err.Error()
		return out, nil
	}
	if len(report) == 0 {
		out.failed++
		out.firstDiff = "empty figure report"
	}
	out.blocks = res.Perf.BlocksExecuted
	if cfg.Cache != nil {
		out.cache = cfg.Cache.Counters()
		out.cacheSize = dirSize(cfg.Cache.Dir())
	}
	w.check(exp, res, out)
	return out, nil
}

// check compares every series, and the learned fit, with the oracle.
func (w *suiteWorkload) check(exp *expectedFile, res *study.Results, out *suiteRep) {
	fail := func(msg string) {
		out.failed++
		if out.firstDiff == "" {
			out.firstDiff = msg
		}
	}
	for _, s := range res.Series {
		want, ok := exp.Series[s.Name]
		if !ok {
			fail(fmt.Sprintf("series %q: not in the oracle", s.Name))
			continue
		}
		got, err := json.Marshal(s)
		if err != nil {
			fail(err.Error())
			continue
		}
		if d := sameJSON(want, got); d != "" {
			fail(fmt.Sprintf("series %s: %s", s.Name, d))
		}
	}
	if w.learned == nil {
		return
	}
	// The suite-level fit is documented as a function of the series in
	// submission order (and is order-sensitive), so its oracle is the
	// fit of the serial collections in this repetition's order.
	out.attempted++
	if res.Learned == nil {
		fail("learned fit missing")
		return
	}
	var data []learned.BenchData
	for _, s := range res.Series {
		data = append(data, exp.learned[s.Name])
	}
	want, err := learned.CrossValidate(*w.learned, data)
	if err != nil {
		fail("learned oracle fit: " + err.Error())
		return
	}
	wantJSON, err1 := json.Marshal(want)
	gotJSON, err2 := json.Marshal(res.Learned)
	if err := errors.Join(err1, err2); err != nil {
		fail(err.Error())
		return
	}
	if d := sameJSON(wantJSON, gotJSON); d != "" {
		fail("learned fit: " + d)
	}
}

// permuted returns the suite in a seeded submission order.
func (w *suiteWorkload) permuted(rng *rand.Rand) []*spec.Benchmark {
	suite := w.suite()
	order := make([]*spec.Benchmark, len(suite))
	for i, j := range rng.Perm(len(suite)) {
		order[i] = suite[j]
	}
	return order
}

// setup is the work before the first timed operation: decode the
// oracle, build the suite and validate the study configuration.
func (w *suiteWorkload) setup(o *options) (*expectedFile, error) {
	exp, err := loadExpected(o.dir, w.name, w.config())
	if err != nil {
		return nil, err
	}
	if w.learned != nil {
		if exp.learned, err = exp.learnedData(); err != nil {
			return nil, err
		}
	}
	cfg := w.studyConfig(w.suite())
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (w *suiteWorkload) measure(o *options) (*report, error) {
	var exp *expectedFile
	setupS, err := timeSetup(func() (func(), error) {
		var err error
		exp, err = w.setup(o)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	var walls, bps, lat []float64
	var order []*spec.Benchmark
	r := newReport()
	rss, err := repeat(o.seconds, minReps, func() (float64, error) {
		// Each seeded order is followed by its reverse, so a long
		// benchmark lands late as often as early and the median does
		// not hinge on where the seed happened to put it.
		if len(walls)%2 == 0 {
			order = w.permuted(rng)
		} else {
			slices.Reverse(order)
		}
		rep, err := w.rep(exp, order, o.work, nil)
		if err != nil {
			return 0, err
		}
		r.count(rep.attempted, rep.failed, rep.firstDiff)
		walls = append(walls, rep.wall)
		bps = append(bps, float64(rep.blocks)/rep.wall)
		lat = append(lat, rep.latencies...)
		return rep.wall, nil
	})
	if err != nil {
		return nil, err
	}
	r.endToEnd(walls, bps, rss, setupS, lat, minReps*len(w.suite()))
	r.note("repetitions %d, compare latency = time from submission until a benchmark's series is complete", len(walls))
	return r, nil
}
