package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/learned"
	"repro/internal/navep"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// The traced run. It runs the workload once untraced and once with the
// pipeline's flight recorder on (alternating, in pairs), then times
// calls into each layer's public functions from this file, on the
// workload's own inputs, one call at a time on one goroutine. From the
// two it reports per-layer costs, each layer's estimated share of the
// workload's busy time, the tracing overhead, and the part of the wall
// time no layer accounts for.

// probeSpec is one reference execution of a workload, as the layer
// probes replay it.
type probeSpec struct {
	bench *spec.Benchmark
	scale float64
	// thresholds are the INIP(T) followers riding the reference run.
	thresholds []uint64
	// periods are the sampled ladders timed as followers. Workloads
	// without sampling time one period so the metric stays defined.
	periods []uint64
	// predictors are timed as an observer (all of them where the
	// workload runs none).
	predictors []string
}

// layerProbe accumulates the probe timings of a workload.
type layerProbe struct {
	build, drive, noop, pred               time.Duration
	followOn, followOff, sampled           time.Duration
	extract, normalize, compare, formOff   time.Duration
	put, lookup                            time.Duration
	builds, compares, extracts, forms, ops int
	blocks, branches                       uint64
	followerBlocks, contextBlocks          uint64
	sampledBlocks                          uint64
	stats                                  dbt.RunStats // summed over the follower run's contexts
	data                                   []learned.BenchData
	// perKey holds each probe's costs for the share estimate.
	perKey []probeCost
}

// probeCost is one probe's layer costs, in the workload's terms.
type probeCost struct {
	build, drive, train, follower, perf time.Duration
	observer, sampled, compare          time.Duration
	trainCompare, extract, collect      time.Duration
}

// branchCounter is an observer that only walks the branch stream.
type branchCounter struct{ n uint64 }

func (c *branchCounter) ObserveBranches(evs []dbt.BranchEvent) { c.n += uint64(len(evs)) }

func timeMulti(img *guest.Image, tape interp.Tape, cfgs []dbt.Config, observers []dbt.TraceObserver) (time.Duration, []*profile.Snapshot, []*dbt.RunStats, error) {
	start := time.Now()
	snaps, stats, err := dbt.RunMultiObserved(img, tape, cfgs, observers)
	return time.Since(start), snaps, stats, err
}

// probe replays one reference execution layer by layer.
func (lp *layerProbe) probe(p probeSpec, store *resultcache.Store) error {
	b := p.bench
	start := time.Now()
	img, tape, err := b.Build("ref", p.scale)
	if err != nil {
		return err
	}
	timg, ttape, err := b.Build("train", p.scale)
	if err != nil {
		return err
	}
	var c probeCost
	c.build = time.Since(start)
	lp.builds++
	target := b.Target(p.scale)
	fresh := func() interp.Tape {
		t, _ := target.NewTape("ref") // "ref" is always a valid input
		return t
	}

	avep := []dbt.Config{perfConfig("ref", 0, false)}
	dDrive, _, stats, err := timeMulti(img, tape, avep, nil)
	if err != nil {
		return err
	}
	blocks := stats[0].BlocksExecuted
	c.drive = dDrive

	var walk branchCounter
	dNoop, _, _, err := timeMulti(img, fresh(), []dbt.Config{perfConfig("ref", 0, false)}, []dbt.TraceObserver{&walk})
	if err != nil {
		return err
	}
	suite, err := predict.NewSuite(p.predictors)
	if err != nil {
		return err
	}
	dPred, _, _, err := timeMulti(img, fresh(), []dbt.Config{perfConfig("ref", 0, false)}, []dbt.TraceObserver{suiteObserver{suite}})
	if err != nil {
		return err
	}
	c.observer = dPred - dDrive

	start = time.Now()
	sites, err := learned.ExtractSites(img)
	if err != nil {
		return err
	}
	c.extract = time.Since(start)
	lp.extracts++
	col := learned.NewCollector(sites)
	dObs, _, _, err := timeMulti(img, fresh(), []dbt.Config{perfConfig("ref", 0, false)}, []dbt.TraceObserver{col})
	if err != nil {
		return err
	}
	lp.data = append(lp.data, col.BenchData(b.Name))
	c.collect = dObs - dDrive

	ladder := func(perf bool, period uint64, ts []uint64) []dbt.Config {
		var cfgs []dbt.Config
		for _, t := range ts {
			cfg := perfConfig("ref", t, true)
			cfg.SamplePeriod = period
			if !perf {
				cfg.Perf = nil
			}
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	k := uint64(len(p.thresholds))
	dOn, snaps, stats, err := timeMulti(img, fresh(), append(avep[:1:1], ladder(true, 0, p.thresholds)...), nil)
	if err != nil {
		return err
	}
	for _, st := range stats {
		lp.stats.BlocksExecuted += st.BlocksExecuted
		lp.stats.BlocksTranslated += st.BlocksTranslated
		lp.stats.OptimizationWaves += st.OptimizationWaves
		lp.stats.RegionsFormed += st.RegionsFormed
	}
	off := perfConfig("ref", 0, false)
	off.Perf = nil
	dOff, _, _, err := timeMulti(img, fresh(), append([]dbt.Config{off}, ladder(false, 0, p.thresholds)...), nil)
	if err != nil {
		return err
	}
	c.follower = dOff - dDrive
	c.perf = dOn - dOff

	var sampledCfgs []dbt.Config
	for _, period := range p.periods {
		sampledCfgs = append(sampledCfgs, ladder(true, period, p.thresholds)...)
	}
	dS, _, _, err := timeMulti(img, fresh(), append(avep[:1:1], sampledCfgs...), nil)
	if err != nil {
		return err
	}
	c.sampled = dS - dDrive

	start = time.Now()
	trainSnap, _, err := dbt.Run(timg, ttape, perfConfig("train", 0, false))
	if err != nil {
		return err
	}
	c.train = time.Since(start)

	for _, snap := range snaps[1:] {
		start = time.Now()
		if _, err := navep.Normalize(snap, snaps[0]); err != nil {
			return err
		}
		lp.normalize += time.Since(start)
		start = time.Now()
		if _, _, err := core.Compare(snap, snaps[0]); err != nil {
			return err
		}
		d := time.Since(start)
		lp.compare += d
		c.compare += d
		lp.compares++
	}
	start = time.Now()
	region.FormOffline(trainSnap, trainRegionThreshold, region.Config{})
	c.trainCompare = time.Since(start)
	lp.formOff += c.trainCompare
	lp.forms++
	withRegions := region.WithOfflineRegions(trainSnap, trainRegionThreshold, region.Config{})
	start = time.Now()
	for _, s := range []*profile.Snapshot{trainSnap, withRegions} {
		if _, _, err := core.Compare(s, snaps[0]); err != nil {
			return err
		}
	}
	c.trainCompare += time.Since(start)

	key := resultcache.Key{
		Kind: "probe", Bench: b.Name, Context: fmt.Sprintf("scale=%g", p.scale),
		Image: img.ContentHash(), Tape: target.TapeID("ref"), Engine: fmt.Sprint(p.thresholds),
	}
	bundle := struct{ Snapshots []*profile.Snapshot }{snaps}
	start = time.Now()
	if err := store.Put(key, &bundle); err != nil {
		return err
	}
	lp.put += time.Since(start)
	var back struct{ Snapshots []*profile.Snapshot }
	start = time.Now()
	if !store.Lookup(key, &back) {
		return fmt.Errorf("result-cache probe: %s entry not found after Put", b.Name)
	}
	lp.lookup += time.Since(start)
	lp.ops++

	lp.build += c.build
	lp.drive += dDrive
	lp.noop += dNoop
	lp.pred += dPred
	lp.followOn += dOn
	lp.followOff += dOff
	lp.sampled += dS
	lp.extract += c.extract
	lp.blocks += blocks
	lp.branches += walk.n
	lp.followerBlocks += k * blocks
	lp.contextBlocks += (k + 1) * blocks
	lp.sampledBlocks += uint64(len(sampledCfgs)) * blocks
	lp.perKey = append(lp.perKey, c)
	return nil
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

func meanMS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / 1e6
}

// addLayerCosts reports the probe-measured per-layer metrics.
func (lp *layerProbe) addLayerCosts(r *report, model learned.Config) error {
	r.add("dbt.drive_ns_per_block", nsPer(lp.drive, lp.blocks), "ns")
	r.add("dbt.follower_ns_per_block", nsPer(lp.followOn-lp.drive, lp.followerBlocks), "ns")
	r.add("perfmodel.ns_per_block", nsPer(lp.followOn-lp.followOff, lp.contextBlocks), "ns")
	r.add("dbt.observer_ns_per_block", nsPer(lp.noop-lp.drive, lp.blocks), "ns")
	r.add("dbt.sampled_follower_ns_per_block", nsPer(lp.sampled-lp.drive, lp.sampledBlocks), "ns")
	r.add("predict.record_ns_per_branch", nsPer(lp.pred-lp.noop, lp.branches), "ns")
	r.add("learned.extract_ms", meanMS(lp.extract, lp.extracts), "ms")
	if len(lp.data) >= 2 {
		start := time.Now()
		if _, err := learned.CrossValidate(model, lp.data); err != nil {
			return err
		}
		r.add("learned.crossval_ms", float64(time.Since(start))/1e6, "ms")
	} else {
		r.add("learned.crossval_ms", 0, "ms")
	}
	r.add("resultcache.lookup_us", meanMS(lp.lookup, lp.ops)*1e3, "us")
	r.add("resultcache.put_us", meanMS(lp.put, lp.ops)*1e3, "us")
	r.add("navep.normalize_us", meanMS(lp.normalize, lp.compares)*1e3, "us")
	r.add("core.compare_us", meanMS(lp.compare, lp.compares)*1e3, "us")
	r.add("region.form_offline_ms", meanMS(lp.formOff, lp.forms), "ms")
	r.add("spec.build_ms", meanMS(lp.build, lp.builds), "ms")
	r.add("dbt.blocks", float64(lp.stats.BlocksExecuted), "count")
	r.add("dbt.translations", float64(lp.stats.BlocksTranslated), "count")
	r.add("dbt.optimization_waves", float64(lp.stats.OptimizationWaves), "count")
	r.add("dbt.regions_formed", float64(lp.stats.RegionsFormed), "count")
	return nil
}

// traceStats summarizes the flight-recorder spans of the traced
// repetition.
type traceStats struct {
	busy          time.Duration
	cache         time.Duration // result-cache lookup and store spans
	refUnit       float64
	trainUnit     float64
	criticalBench float64
}

func summarizeTrace(buf *bytes.Buffer) (*traceStats, error) {
	events, err := obs.ReadEvents(buf)
	if err != nil {
		return nil, err
	}
	var ts traceStats
	var refs, trains []float64
	first := map[string]int64{}
	last := map[string]int64{}
	for _, ev := range events {
		ts.busy += time.Duration(ev.DurNS)
		switch ev.Unit {
		case obs.UnitRef:
			refs = append(refs, float64(ev.DurNS)/1e9)
		case obs.UnitTrain:
			trains = append(trains, float64(ev.DurNS)/1e9)
		case obs.UnitCacheHit, obs.UnitCacheMiss, obs.UnitCacheStore:
			ts.cache += time.Duration(ev.DurNS)
		}
		if s, ok := first[ev.Bench]; !ok || ev.StartNS < s {
			first[ev.Bench] = ev.StartNS
		}
		if e := ev.StartNS + ev.DurNS; e > last[ev.Bench] {
			last[ev.Bench] = e
		}
	}
	ts.refUnit = median(refs)
	ts.trainUnit = median(trains)
	for b, s := range first {
		if b == "suite" {
			continue // the suite-level learned fit
		}
		ts.criticalBench = max(ts.criticalBench, float64(last[b]-s)/1e9)
	}
	return &ts, nil
}

// layerShares is each layer's estimated busy time in the traced
// repetition.
type layerShares struct {
	names []string
	d     map[string]time.Duration
}

func (s *layerShares) add(name string, d time.Duration) {
	if s.d == nil {
		s.d = map[string]time.Duration{}
	}
	if _, ok := s.d[name]; !ok {
		s.names = append(s.names, name)
	}
	s.d[name] += d
}

// report records each share of busy time, the unaccounted share of the
// pool's wall time and the tracing overhead.
func (s *layerShares) report(r *report, ts *traceStats, tracedWall, untracedWall float64) {
	var sum time.Duration
	for _, n := range s.names {
		share := 0.0
		if ts.busy > 0 {
			share = float64(s.d[n]) / float64(ts.busy)
		}
		sum += s.d[n]
		r.add("share."+n, share, "fraction")
	}
	poolWall := tracedWall * float64(workers())
	r.add("core.pool_idle_frac", 1-ts.busy.Seconds()/poolWall, "fraction")
	r.add("trace.unaccounted_frac", 1-sum.Seconds()/poolWall, "fraction")
	r.add("trace.overhead_frac", tracedWall/untracedWall-1, "fraction")
	r.add("core.ref_unit_s", ts.refUnit, "s")
	r.add("core.train_unit_s", ts.trainUnit, "s")
	r.add("core.critical_bench_s", ts.criticalBench, "s")
	r.note("busy time %.3fs in spans over %.3fs traced wall x %d workers; untraced wall %.3fs", ts.busy.Seconds(), tracedWall, workers(), untracedWall)
}

// tracedPairs is how many untraced/traced repetition pairs a traced
// run makes; the overhead compares their medians. serve_mix
// repetitions are short, so it makes more.
const (
	tracedPairs      = 2
	tracedServePairs = 6
)

func (w *suiteWorkload) traced(o *options) (*report, error) {
	exp, err := w.setup(o)
	if err != nil {
		return nil, err
	}
	order := w.permuted(rand.New(rand.NewSource(o.seed)))
	r := newReport()
	var untraced, traced []float64
	var last *suiteRep
	var buf bytes.Buffer
	for range tracedPairs {
		u, err := w.rep(exp, order, o.work, nil)
		if err != nil {
			return nil, err
		}
		r.count(u.attempted, u.failed, u.firstDiff)
		untraced = append(untraced, u.wall)
		buf.Reset()
		rec := obs.NewRecorderSize(&buf, 1<<16)
		t, err := w.rep(exp, order, o.work, rec)
		if _, cerr := rec.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		r.count(t.attempted, t.failed, t.firstDiff)
		traced = append(traced, t.wall)
		last = t
	}
	ts, err := summarizeTrace(&buf)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if last.res != nil {
		last.res.TextReport(false)
	}
	figures := time.Since(start)

	store, err := probeStore(o.work)
	if err != nil {
		return nil, err
	}
	preds := w.predictors
	if len(preds) == 0 {
		preds = predict.Names()
	}
	periods := w.periods
	if len(periods) == 0 {
		periods = []uint64{16}
	}
	distinct := distinctThresholds(w.thresholds())
	var lp layerProbe
	for _, b := range order {
		if err := lp.probe(probeSpec{bench: b, scale: w.scale, thresholds: distinct, periods: periods, predictors: preds}, store); err != nil {
			return nil, err
		}
	}
	model := learned.Config{Model: learned.ModelTree}
	if w.learned != nil {
		model = *w.learned
	}
	if err := lp.addLayerCosts(r, model); err != nil {
		return nil, err
	}
	r.add("study.figures_ms", float64(figures)/1e6, "ms")
	hits, misses := last.cache.Hits, last.cache.Misses
	r.add("resultcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "fraction")
	r.add("resultcache.bytes_written", float64(last.cacheSize), "bytes")
	r.add("serve.coalesced_ratio", 0, "fraction")
	r.add("serve.warm_ratio", 0, "fraction")
	r.add("serve.overload_total", 0, "count")

	var sh layerShares
	for _, c := range lp.perKey {
		sh.add("build", c.build)
		sh.add("driver", c.drive+c.train)
		sh.add("follower", c.follower)
		sh.add("perfmodel", c.perf)
		sh.add("compare", c.compare)
		sh.add("train_compare", c.trainCompare)
		if len(w.predictors) > 0 || w.learned != nil {
			sh.add("observer", c.observer)
		} else {
			sh.add("observer", 0)
		}
		if len(w.periods) > 0 {
			sh.add("sampled", c.sampled+time.Duration(len(w.periods))*c.compare)
		} else {
			sh.add("sampled", 0)
		}
		if w.learned != nil {
			sh.add("learned", c.extract+c.collect)
		} else {
			sh.add("learned", 0)
		}
	}
	if w.learned != nil {
		sh.add("learned", time.Duration(r.metrics["learned.crossval_ms"].Value*1e6))
	}
	sh.add("resultcache", ts.cache)
	sh.add("figures", figures)
	sh.report(r, ts, median(traced), median(untraced))
	return r, nil
}

func (w *serveWorkload) traced(o *options) (*report, error) {
	exp, err := loadExpected(o.dir, w.name, w.config())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	script := w.script(rng, newKeyDealer(w.keys(), rng))
	r := newReport()
	var untraced, traced []float64
	var last *serveRep
	var buf bytes.Buffer
	for range tracedServePairs {
		u, err := w.rep(exp, script, o.work, nil)
		if err != nil {
			return nil, err
		}
		r.count(u.attempted, u.failed, u.firstDiff)
		untraced = append(untraced, u.wall)
		buf.Reset()
		rec := obs.NewRecorderSize(&buf, 1<<16)
		t, err := w.rep(exp, script, o.work, rec)
		if _, cerr := rec.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		r.count(t.attempted, t.failed, t.firstDiff)
		traced = append(traced, t.wall)
		last = t
	}
	ts, err := summarizeTrace(&buf)
	if err != nil {
		return nil, err
	}

	store, err := probeStore(o.work)
	if err != nil {
		return nil, err
	}
	// One probe per executed key: the first request for each key ran
	// the pipeline, every later one was warm or coalesced.
	var lp layerProbe
	var sh layerShares
	seen := map[string]bool{}
	trained := map[string]bool{}
	for _, c := range script {
		for _, st := range c {
			if seen[st.key.String()] {
				continue
			}
			seen[st.key.String()] = true
			b := spec.ByName(st.key.bench)
			eff := study.EffectiveThreshold(st.key.t, w.scale)
			p := probeSpec{bench: b, scale: w.scale, thresholds: []uint64{eff}, periods: []uint64{w.period}, predictors: w.predictors}
			if err := lp.probe(p, store); err != nil {
				return nil, err
			}
			c := lp.perKey[len(lp.perKey)-1]
			sh.add("build", c.build)
			drive := c.drive
			if !trained[b.Name] {
				// The training run and comparison are cached per
				// benchmark after the first key.
				drive += c.train
				sh.add("train_compare", c.trainCompare)
				trained[b.Name] = true
			}
			sh.add("driver", drive)
			sh.add("follower", c.follower)
			sh.add("perfmodel", c.perf)
			sh.add("compare", c.compare)
			switch st.key.variant {
			case "bp":
				sh.add("observer", c.observer)
			case "sp":
				sh.add("sampled", c.sampled+c.compare)
			}
		}
	}
	for _, n := range []string{"train_compare", "observer", "sampled"} {
		sh.add(n, 0)
	}
	sh.add("learned", 0)
	if err := lp.addLayerCosts(r, learned.Config{Model: learned.ModelTree}); err != nil {
		return nil, err
	}
	figures, err := figuresProbe(o.dir, w.figures)
	if err != nil {
		return nil, err
	}
	r.add("study.figures_ms", float64(figures)/1e6, "ms")
	hits, misses := last.cache.Hits, last.cache.Misses
	r.add("resultcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "fraction")
	r.add("resultcache.bytes_written", float64(last.cacheSize), "bytes")
	m := last.metrics
	reqs := m["inipd_compare_requests_total"]
	r.add("serve.coalesced_ratio", ratio(m["inipd_compare_coalesced_total"], reqs), "fraction")
	r.add("serve.warm_ratio", ratio(m["inipd_compare_warm_total"], reqs), "fraction")
	r.add("serve.overload_total", m["inipd_compare_overload_total"], "count")
	sh.add("resultcache", ts.cache)
	sh.add("figures", 0)
	sh.report(r, ts, median(traced), median(untraced))
	return r, nil
}

// figuresProbe times figure rendering over a suite oracle's series, for
// workloads that render no figures themselves.
func figuresProbe(dir string, w *suiteWorkload) (time.Duration, error) {
	exp, err := loadExpected(dir, w.name, w.config())
	if err != nil {
		return 0, err
	}
	paperT, _ := study.EffectiveLadder(study.AllThresholds, w.scale)
	res := &study.Results{Scale: w.scale, PaperT: paperT}
	for _, b := range w.suite() {
		var s study.BenchmarkSeries
		if err := json.Unmarshal(exp.Series[b.Name], &s); err != nil {
			return 0, err
		}
		res.Series = append(res.Series, s)
	}
	start := time.Now()
	res.TextReport(false)
	return time.Since(start), nil
}

func probeStore(work string) (*resultcache.Store, error) {
	dir, err := os.MkdirTemp(work, "probe-")
	if err != nil {
		return nil, err
	}
	return resultcache.Open(dir)
}

// distinctThresholds deduplicates a ladder that scaling collapsed, as
// the pipeline does: one follower per distinct threshold.
func distinctThresholds(ts []uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
