package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/dbt"
	"repro/internal/learned"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/resultcache"
)

// This file threads the result cache (internal/resultcache) through the
// unit pipeline. The contract with the scheduler in core.go:
//
//   - lookup happens before a unit's expensive body runs; a validated
//     hit replays the unit's outputs without executing any guest block
//     (addRunStats is never called on a warm path, so the study's
//     BlocksExecuted stays at zero for fully cached benchmarks);
//   - store happens only on the unit's clean completion path. Failed,
//     interrupted or faulted runs never reach a Put, so the cache can
//     only ever hold results the uncached pipeline would have reported;
//   - in verify mode (Options.CacheVerify) a hit does not short-circuit:
//     the unit executes anyway and a divergence between the computed and
//     cached values is a hard unit error — the differential self-check
//     of both the cache and the engine's determinism.
//
// What is never cached: benchmarks with an armed fault plan (their runs
// are deliberately perturbed), targets without a TapeID (the input
// identity is not declarative, so the key closure is incomplete), and
// interrupted or failed units (no clean completion, no store).

// runOutput is the cached outcome of one profiled execution: the unit of
// reuse for training runs, and the per-follower element of the
// reference bundle.
type runOutput struct {
	// T is the effective retranslation threshold (0 for AVEP/train).
	T uint64 `json:"t"`
	// Snapshot is the run's profile snapshot.
	Snapshot *profile.Snapshot `json:"snapshot"`
	// Stats are the engine counters of this run's profiling context.
	Stats dbt.RunStats `json:"stats"`
	// Cycles is the perf-model total (0 when the model is off).
	Cycles float64 `json:"cycles"`
}

// refEntry is the cached output of the reference unit: the
// AVEP profile plus one runOutput per distinct effective threshold, in
// ladder (config) order.
type refEntry struct {
	AVEP       *profile.Snapshot `json:"avep"`
	AVEPStats  dbt.RunStats      `json:"avep_stats"`
	AVEPCycles float64           `json:"avep_cycles"`
	Runs       []runOutput       `json:"runs"`
}

// cmpEntry is the cached output of one INIP(T)-vs-AVEP comparison.
type cmpEntry struct {
	Summary metrics.Summary `json:"summary"`
}

// trainCmpEntry is the cached output of the training comparison pair.
type trainCmpEntry struct {
	Train        metrics.Summary `json:"train"`
	TrainRegions metrics.Summary `json:"train_regions"`
}

// bpEntry is the cached output of the dynamic-predictor observers over
// the reference trace: one tally per requested predictor, in request
// order. The trace is fully determined by image and tape, so the entry
// is threshold-independent and shared across ladder shapes.
type bpEntry struct {
	Results []predict.Result `json:"results"`
}

// lsEntry is the cached output of the learned-predictor collection over
// the reference trace: every static branch site with its feature vector
// and outcome tallies. Like bp it is threshold-independent — the trace
// is fully determined by image and tape — and shared across ladder
// shapes. The fingerprint pins the feature schema (and,
// via the key's engine component, the model config it will feed).
type lsEntry struct {
	Fingerprint string            `json:"fingerprint"`
	Data        learned.BenchData `json:"data"`
}

// spEntry is the cached output of one sampled-profiling ladder: every
// distinct-threshold run of one sample period over the reference
// input, in ladder (config) order. The comparisons against AVEP are
// not cached — they are cheap and recomputed on warm reruns.
type spEntry struct {
	Period uint64      `json:"period"`
	Runs   []runOutput `json:"runs"`
}

// lookupEntry is Store.Lookup plus shape restoration. The store's gob
// value codec decodes an empty slice as nil, while the producers above
// always allocate BenchData.Sites and the Runs ladders; an entry's
// restore method puts that shape back after a hit, so a cached value is
// indistinguishable from a computed one to json.Marshal (-cacheverify)
// and reflect.DeepEqual. (gob keeps empty maps such as Snapshot.Blocks
// non-nil on its own.)
func lookupEntry(store *resultcache.Store, k resultcache.Key, v any) bool {
	if !store.Lookup(k, v) {
		return false
	}
	if r, ok := v.(interface{ restore() }); ok {
		r.restore()
	}
	return true
}

func (e *refEntry) restore() { e.Runs = restoreRuns(e.Runs) }

func (e *spEntry) restore() { e.Runs = restoreRuns(e.Runs) }

func (e *lsEntry) restore() {
	if e.Data.Sites == nil {
		e.Data.Sites = []learned.Site{}
	}
}

func restoreRuns(runs []runOutput) []runOutput {
	if runs == nil {
		return []runOutput{}
	}
	return runs
}

// cacheUsable reports whether this benchmark's units may consult the
// result cache at all. Fault plans perturb runs, and a target without a
// declarative tape identity leaves the key closure incomplete — in both
// cases the pipeline silently runs uncached rather than guessing.
func (b *benchRun) cacheUsable() bool {
	return b.opts.Cache != nil && b.t.TapeID != nil && b.opts.Faults == nil
}

// cacheKey assembles the canonical key for one unit output of this
// benchmark. imgHash and tape identify the guest-side inputs, engine the
// translator configuration(s); kind and t disambiguate the unit flavour.
func (b *benchRun) cacheKey(kind, imgHash, tape, engine string, t uint64) resultcache.Key {
	return resultcache.Key{
		Kind:    kind,
		Bench:   b.t.Name,
		Context: b.opts.CacheContext,
		Image:   imgHash,
		Tape:    tape,
		Engine:  engine,
		T:       t,
	}
}

// cacheLookup consults the store and emits the matching flight-recorder
// event, so traces show where warm runs got their data.
func (b *benchRun) cacheLookup(k resultcache.Key, v any, worker int) bool {
	start := time.Now()
	hit := lookupEntry(b.opts.Cache, k, v)
	unit := obs.UnitCacheMiss
	if hit {
		unit = obs.UnitCacheHit
	}
	b.opts.Trace.Record(b.t.Name, unit, k.T, worker, start, time.Since(start), 0, nil)
	return hit
}

// cacheStore publishes one clean unit output. A failed write is traced
// and counted by the store but never fails the unit — the computed
// result is correct either way, only its reuse is lost.
func (b *benchRun) cacheStore(k resultcache.Key, v any, worker int) {
	start := time.Now()
	err := b.opts.Cache.Put(k, v)
	b.opts.Trace.Record(b.t.Name, obs.UnitCacheStore, k.T, worker, start, time.Since(start), 0, err)
}

// cacheVerify compares a freshly computed unit output against the
// cached entry for the same key. Both sides are canonicalized through
// json.Marshal (deterministic: struct order, sorted map keys) so a
// value that merely round-tripped through the store compares equal; any
// remaining difference means the cache and the engine disagree about a
// supposedly deterministic result, which is exactly what verify mode
// exists to catch — it is a hard unit error, subject to the failure
// policy like any other.
func (b *benchRun) cacheVerify(k resultcache.Key, computed, cached any) error {
	cj, err := json.Marshal(computed)
	if err != nil {
		return fmt.Errorf("core: cache verify %s of %s: encode computed: %w", k.Kind, b.t.Name, err)
	}
	gj, err := json.Marshal(cached)
	if err != nil {
		return fmt.Errorf("core: cache verify %s of %s: encode cached: %w", k.Kind, b.t.Name, err)
	}
	if !bytes.Equal(cj, gj) {
		return fmt.Errorf("core: cache verify: %s entry of %s (t=%d) diverges from recomputed result (entry %s)",
			k.Kind, b.t.Name, k.T, k.Hash())
	}
	return nil
}

// cacheSettle is the shared tail of every caching unit body: on a miss
// the computed value is stored; on a verify-mode hit the computed value
// is checked against the cached one. (A non-verify hit never reaches
// the computation, so it never reaches here either.)
func (b *benchRun) cacheSettle(k resultcache.Key, hit bool, computed, cached any, worker int) error {
	if hit {
		return b.cacheVerify(k, computed, cached)
	}
	b.cacheStore(k, computed, worker)
	return nil
}

// cyclesOf extracts a run's perf-model total (0 with the model off).
func cyclesOf(cfg dbt.Config) float64 {
	if cfg.Perf != nil {
		return cfg.Perf.Cycles
	}
	return 0
}

// refEntryMatches sanity-checks a decoded reference bundle against the
// follower configs the pipeline is about to serve. The key fingerprint
// already encodes the config set, so a mismatch indicates a damaged or
// hand-edited entry; the caller treats it as a miss.
func refEntryMatches(ent *refEntry, cfgs []dbt.Config) bool {
	if ent.AVEP == nil || len(ent.Runs) != len(cfgs)-1 {
		return false
	}
	for j, ro := range ent.Runs {
		if ro.Snapshot == nil || ro.T != cfgs[j+1].Threshold {
			return false
		}
	}
	return true
}

// refCacheKey keys the reference bundle: one entry covers
// the AVEP run and every distinct-threshold follower, so the engine
// component joins all follower fingerprints in config order.
func (b *benchRun) refCacheKey(imgHash string, cfgs []dbt.Config) resultcache.Key {
	engines := make([]byte, 0, 64*len(cfgs))
	for i, cfg := range cfgs {
		if i > 0 {
			engines = append(engines, '|')
		}
		engines = append(engines, cfg.Fingerprint()...)
	}
	return b.cacheKey("ref", imgHash, b.t.TapeID("ref"), string(engines), 0)
}

// bpEntryMatches sanity-checks a decoded predictor entry against the
// requested predictor list; a mismatch is treated as a miss.
func bpEntryMatches(ent *bpEntry, names []string) bool {
	if len(ent.Results) != len(names) {
		return false
	}
	for i, r := range ent.Results {
		if r.Predictor != names[i] {
			return false
		}
	}
	return true
}

// bpCacheKey keys the predictor tallies over the reference trace. The
// engine component is the predictor list — the trace itself does not
// depend on any translator configuration, only on image and tape.
func (b *benchRun) bpCacheKey(imgHash string) resultcache.Key {
	return b.cacheKey("bp", imgHash, b.t.TapeID("ref"),
		"predictors="+strings.Join(b.opts.Predictors, ","), 0)
}

// lsEntryMatches sanity-checks a decoded learned-collection entry; a
// mismatch (wrong fingerprint, wrong benchmark, or a feature width the
// current extractor would not produce) is treated as a miss.
func lsEntryMatches(ent *lsEntry, fingerprint, bench string) bool {
	if ent.Fingerprint != fingerprint || ent.Data.Bench != bench {
		return false
	}
	for i := range ent.Data.Sites {
		if len(ent.Data.Sites[i].X) != learned.NumFeatures() {
			return false
		}
	}
	return true
}

// lsCacheKey keys the learned collection over the reference trace. The
// engine component is the model-config fingerprint, which also carries
// the feature-schema version; the collection itself depends only on
// image and tape, so study runs and the daemon warm each other.
func (b *benchRun) lsCacheKey(imgHash string) resultcache.Key {
	return b.cacheKey("ls", imgHash, b.t.TapeID("ref"), b.opts.Learned.Fingerprint(), 0)
}

// spEntryMatches sanity-checks a decoded sampled-ladder entry against
// the period and configs the pipeline is about to serve; a mismatch is
// treated as a miss.
func spEntryMatches(ent *spEntry, period uint64, cfgs []dbt.Config) bool {
	if ent.Period != period || len(ent.Runs) != len(cfgs) {
		return false
	}
	for j, ro := range ent.Runs {
		if ro.Snapshot == nil || ro.T != cfgs[j].Threshold {
			return false
		}
	}
	return true
}

// spCacheKey keys one sampled-profiling ladder. Each config's
// fingerprint already carries the period and seed (";sample=..."), so
// the joined engine component pins the whole bundle; T carries the
// period to keep entries of one sweep distinguishable in traces.
func (b *benchRun) spCacheKey(imgHash string, period uint64, cfgs []dbt.Config) resultcache.Key {
	engines := make([]byte, 0, 64*len(cfgs))
	for i, cfg := range cfgs {
		if i > 0 {
			engines = append(engines, '|')
		}
		engines = append(engines, cfg.Fingerprint()...)
	}
	return b.cacheKey("sp", imgHash, b.t.TapeID("ref"), string(engines), period)
}

// runCacheKey keys one standalone profiled execution (the training
// run).
func (b *benchRun) runCacheKey(imgHash, input string, cfg dbt.Config) resultcache.Key {
	return b.cacheKey("run", imgHash, b.t.TapeID(input), cfg.Fingerprint(), cfg.Threshold)
}

// cmpCacheKey keys one INIP(T)-vs-AVEP comparison. Both sides' configs
// participate.
func (b *benchRun) cmpCacheKey(t uint64) resultcache.Key {
	inip := b.dbtConfig("ref", t, true).Fingerprint()
	avep := b.dbtConfig("ref", 0, false).Fingerprint()
	return b.cacheKey("cmp", b.refImgHash, b.t.TapeID("ref"),
		fmt.Sprintf("inip(%s)vs(%s)", inip, avep), t)
}

// trainCmpCacheKey keys the training comparison pair. It spans two
// images and two tapes (ref for AVEP, train for INIP(train)), joined
// component-wise; the offline region formation that produces the
// TrainRegions side is pinned by its threshold.
func (b *benchRun) trainCmpCacheKey() resultcache.Key {
	avep := b.dbtConfig("ref", 0, false).Fingerprint()
	train := b.dbtConfig("train", 0, false).Fingerprint()
	return b.cacheKey("traincmp",
		b.refImgHash+"+"+b.trainImgHash,
		b.t.TapeID("ref")+"+"+b.t.TapeID("train"),
		fmt.Sprintf("train(%s)vs(%s)|offlineregions=%d", train, avep, trainRegionThreshold), 0)
}
