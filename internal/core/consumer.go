package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/learned"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/resultcache"
)

// traceConsumer is one product of a benchmark input's guest trace: a
// result-cache entry plus the followers and observers that compute it
// on a cold run. runTrace drives every consumer of one input over a
// single guest execution, so adding a study axis means one consumer,
// its entry type and its row in the cache-kind tests.
type traceConsumer interface {
	// key is the consumer's cache key over the built image's hash.
	key(imgHash string) resultcache.Key
	// entry is the decode target of the consumer's cache lookup.
	entry() any
	// matches sanity-checks the decoded entry against what the consumer
	// is about to serve. The key already pins the configuration, so a
	// mismatch means a damaged or hand-edited entry; it is a miss.
	matches() bool
	// attach returns the follower configs and trace observers the
	// consumer needs on a cold run.
	attach(img *guest.Image, worker int) ([]dbt.Config, []dbt.TraceObserver, error)
	// settle publishes the consumer's outputs from its own followers'
	// results (in attach order) and observers, and returns the entry
	// value to store on a miss or check on a verify-mode hit.
	settle(runs []runOutput) any
	// replay publishes the consumer's outputs from its decoded entry.
	replay()
}

// runTrace builds one input and serves every consumer from one guest
// trace through the result cache. When every entry hits outside verify
// mode the consumers replay and no guest block executes (addRunStats is
// deliberately not called: a fully cached unit reports zero blocks).
// Otherwise the guest executes once over the union of the consumers'
// followers and observers — a plain unoptimized config drives when no
// consumer has a follower — and every entry is settled before runTrace
// returns: stored on a miss, checked on a hit. A partial hit therefore
// still re-executes once and verifies the entries that did hit. unit
// is the run's span kind and what names the run in its error.
func (b *benchRun) runTrace(input, unit, what string, worker int, cs ...traceConsumer) error {
	start := time.Now()
	img, tape, err := b.build.get(input)
	b.record(obs.UnitBuild, 0, worker, start, 0, err)
	if err != nil {
		return err
	}
	useCache := b.cacheUsable()
	keys := make([]resultcache.Key, len(cs))
	hits := make([]bool, len(cs))
	allHit := useCache
	if useCache {
		imgHash := img.ContentHash()
		if input == "train" {
			b.trainImgHash = imgHash
		} else {
			b.refImgHash = imgHash
		}
		for i, c := range cs {
			keys[i] = c.key(imgHash)
			hits[i] = b.cacheLookup(keys[i], c.entry(), worker) && c.matches()
			allHit = allHit && hits[i]
		}
	}
	if allHit && !b.opts.CacheVerify {
		for _, c := range cs {
			c.replay()
		}
		return nil
	}

	var cfgs []dbt.Config
	var observers []dbt.TraceObserver
	ends := make([]int, len(cs))
	for i, c := range cs {
		fc, fo, err := c.attach(img, worker)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, fc...)
		observers = append(observers, fo...)
		ends[i] = len(cfgs)
	}
	if len(cfgs) == 0 {
		cfgs = []dbt.Config{b.dbtConfig(input, 0, false)}
	}
	start = time.Now()
	snaps, stats, err := dbt.RunMultiObserved(img, tape, cfgs, observers)
	if err != nil {
		err = fmt.Errorf("core: %s of %s: %w", what, b.t.Name, err)
		b.record(unit, 0, worker, start, 0, err)
		return err
	}
	for _, st := range stats {
		b.addRunStats(st)
	}
	b.recordRun(unit, 0, worker, start, stats...)
	runs := make([]runOutput, len(cfgs))
	for k, cfg := range cfgs {
		runs[k] = runOutput{T: cfg.Threshold, Snapshot: snaps[k], Stats: *stats[k]}
		if cfg.Perf != nil {
			runs[k].Cycles = cfg.Perf.Cycles
		}
	}
	values := make([]any, len(cs))
	lo := 0
	for i, c := range cs {
		values[i] = c.settle(runs[lo:ends[i]:ends[i]])
		lo = ends[i]
	}
	// Settle every entry before the caller spawns any comparison, so a
	// failed check fails the unit while every dependent item is still
	// its own to retire.
	if useCache {
		for i, c := range cs {
			if err := b.cacheSettle(keys[i], hits[i], values[i], c.entry(), worker); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinFingerprints is the engine component of a bundle key: every
// follower's fingerprint in config order, so any ladder change misses.
func joinFingerprints(cfgs []dbt.Config) string {
	engines := make([]byte, 0, 64*len(cfgs))
	for i, cfg := range cfgs {
		if i > 0 {
			engines = append(engines, '|')
		}
		engines = append(engines, cfg.Fingerprint()...)
	}
	return string(engines)
}

// runsMatch checks a decoded ladder against the configs it serves.
func runsMatch(runs []runOutput, cfgs []dbt.Config) bool {
	if len(runs) != len(cfgs) {
		return false
	}
	for j, ro := range runs {
		if ro.Snapshot == nil || ro.T != cfgs[j].Threshold {
			return false
		}
	}
	return true
}

// followers is the part shared by the consumers that add configs: the
// benchmark and the configs, attached as they are.
type followers struct {
	b    *benchRun
	cfgs []dbt.Config
}

func (f *followers) attach(*guest.Image, int) ([]dbt.Config, []dbt.TraceObserver, error) {
	return f.cfgs, nil, nil
}

// refConsumer is the reference bundle: the AVEP config plus one
// follower per distinct ladder threshold, under one `ref` entry.
type refConsumer struct {
	followers  // AVEP first, then the distinct thresholds
	cached     refEntry
	avep       *profile.Snapshot
	avepCycles float64
	outs       []runOutput // one per distinct threshold
}

func (c *refConsumer) key(imgHash string) resultcache.Key {
	return c.b.cacheKey("ref", imgHash, c.b.t.TapeID("ref"), joinFingerprints(c.cfgs), 0)
}

func (c *refConsumer) entry() any { return &c.cached }

func (c *refConsumer) matches() bool {
	return c.cached.AVEP != nil && runsMatch(c.cached.Runs, c.cfgs[1:])
}

func (c *refConsumer) settle(runs []runOutput) any {
	c.avep, c.avepCycles, c.outs = runs[0].Snapshot, runs[0].Cycles, runs[1:]
	return refEntry{AVEP: c.avep, AVEPStats: runs[0].Stats, AVEPCycles: c.avepCycles, Runs: c.outs}
}

func (c *refConsumer) replay() {
	c.avep, c.avepCycles, c.outs = c.cached.AVEP, c.cached.AVEPCycles, c.cached.Runs
}

// spConsumer is one sampled-profiling ladder: the distinct-threshold
// followers with the sampling stride on. Each period has its own `sp`
// entry (T carries the period), so a sweep warms incrementally and the
// `ref` entry stays byte-identical to a run without sampling.
type spConsumer struct {
	followers
	period uint64
	cached spEntry
	outs   []runOutput
}

func (c *spConsumer) key(imgHash string) resultcache.Key {
	return c.b.cacheKey("sp", imgHash, c.b.t.TapeID("ref"), joinFingerprints(c.cfgs), c.period)
}

func (c *spConsumer) entry() any { return &c.cached }

func (c *spConsumer) matches() bool {
	return c.cached.Period == c.period && runsMatch(c.cached.Runs, c.cfgs)
}

func (c *spConsumer) settle(runs []runOutput) any {
	for _, ro := range runs {
		c.b.addSampleStats(ro.Snapshot)
	}
	c.outs = runs
	return spEntry{Period: c.period, Runs: runs}
}

func (c *spConsumer) replay() { c.outs = c.cached.Runs }

// bpConsumer drives the requested dynamic predictors off the branch
// stream. The tallies depend only on image and tape, so the `bp` entry
// is keyed on the predictor list and shared across ladder shapes.
type bpConsumer struct {
	b      *benchRun
	suite  *predict.Suite
	cached bpEntry
}

func (c *bpConsumer) key(imgHash string) resultcache.Key {
	return c.b.cacheKey("bp", imgHash, c.b.t.TapeID("ref"),
		"predictors="+strings.Join(c.b.opts.Predictors, ","), 0)
}

func (c *bpConsumer) entry() any { return &c.cached }

func (c *bpConsumer) matches() bool {
	return slices.EqualFunc(c.cached.Results, c.b.opts.Predictors, func(r predict.Result, name string) bool {
		return r.Predictor == name
	})
}

// attach builds the predictor set. Unknown names are a unit error here;
// study.Config and the flag layer validate earlier, so this guards
// direct API use.
func (c *bpConsumer) attach(*guest.Image, int) ([]dbt.Config, []dbt.TraceObserver, error) {
	suite, err := predict.NewSuite(c.b.opts.Predictors)
	if err != nil {
		return nil, nil, err
	}
	c.suite = suite
	return nil, []dbt.TraceObserver{c}, nil
}

// ObserveBranches records each resolved conditional branch, in
// architectural order.
func (c *bpConsumer) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		c.suite.Record(ev.PC, ev.Taken)
	}
}

func (c *bpConsumer) settle([]runOutput) any {
	c.b.out.Predictors = c.suite.Results()
	return bpEntry{Results: c.b.out.Predictors}
}

func (c *bpConsumer) replay() { c.b.out.Predictors = c.cached.Results }

// lsConsumer collects the learned predictor's per-site features and
// outcome tallies. The `ls` entry is keyed on the model-config
// fingerprint, which carries the feature-schema version; the collection
// depends only on image and tape, so study runs and the daemon's
// CollectLearnedData warm each other.
type lsConsumer struct {
	b      *benchRun
	col    *learned.Collector
	cached lsEntry
}

func (c *lsConsumer) key(imgHash string) resultcache.Key {
	return c.b.cacheKey("ls", imgHash, c.b.t.TapeID("ref"), c.b.opts.Learned.Fingerprint(), 0)
}

func (c *lsConsumer) entry() any { return &c.cached }

// matches also rejects a feature width the current extractor would not
// produce.
func (c *lsConsumer) matches() bool {
	return c.cached.Fingerprint == c.b.opts.Learned.Fingerprint() && c.cached.Data.Bench == c.b.t.Name &&
		!slices.ContainsFunc(c.cached.Data.Sites, func(s learned.Site) bool { return len(s.X) != learned.NumFeatures() })
}

// attach extracts the static branch sites: pure static analysis of the
// image (internal/cfg + a successor-closure walk), traced under its own
// flight-recorder unit.
func (c *lsConsumer) attach(img *guest.Image, worker int) ([]dbt.Config, []dbt.TraceObserver, error) {
	start := time.Now()
	sites, err := learned.ExtractSites(img)
	c.b.record(obs.UnitLearnedCollect, 0, worker, start, 0, err)
	if err != nil {
		return nil, nil, fmt.Errorf("core: learned feature extraction of %s: %w", c.b.t.Name, err)
	}
	c.col = learned.NewCollector(sites)
	return nil, []dbt.TraceObserver{c.col}, nil
}

func (c *lsConsumer) settle([]runOutput) any {
	data := c.col.BenchData(c.b.t.Name)
	c.b.out.Learned = &data
	return lsEntry{Fingerprint: c.b.opts.Learned.Fingerprint(), Data: data}
}

func (c *lsConsumer) replay() {
	data := c.cached.Data
	c.b.out.Learned = &data
}

// runConsumer is one standalone profiled execution under a `run` entry
// (the training run): its one follower drives.
type runConsumer struct {
	followers
	cached runOutput
	snap   *profile.Snapshot
}

func (c *runConsumer) key(imgHash string) resultcache.Key {
	cfg := c.cfgs[0]
	return c.b.cacheKey("run", imgHash, c.b.t.TapeID(cfg.Input), cfg.Fingerprint(), cfg.Threshold)
}

func (c *runConsumer) entry() any { return &c.cached }

func (c *runConsumer) matches() bool { return c.cached.Snapshot != nil }

func (c *runConsumer) settle(runs []runOutput) any {
	c.snap = runs[0].Snapshot
	return runs[0]
}

func (c *runConsumer) replay() { c.snap = c.cached.Snapshot }
