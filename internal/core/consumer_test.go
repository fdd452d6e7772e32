package core_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/learned"
	"repro/internal/predict"
	"repro/internal/resultcache"
)

// partialOpts turns on every trace consumer of the reference unit: the
// ref bundle, bp, ls, and one sp ladder per period.
func partialOpts() core.Options {
	lc := learned.DefaultConfig()
	return core.Options{
		Thresholds:    []uint64{4, 16},
		Perf:          true,
		Predictors:    predict.Names(),
		Learned:       &lc,
		SamplePeriods: []uint64{4, 16},
		CacheContext:  "test",
	}
}

// removeEntry deletes the one entry of the given kind (and t field, when
// not empty) and returns how many entries the directory held before.
func removeEntry(t *testing.T, dir, kind, tField string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var match []string
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		k, tf := core.EntryKind(t, p)
		if k == kind && (tField == "" || tf == tField) {
			match = append(match, p)
		}
	}
	if len(match) != 1 {
		t.Fatalf("%d %s entries with t=%q, want 1", len(match), kind, tField)
	}
	if err := os.Remove(match[0]); err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// runOn runs the benchmark over a fresh store handle on dir.
func runOn(t *testing.T, target core.Target, opts core.Options, dir string) (*core.BenchmarkResult, *resultcache.Store, *core.Timing, error) {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = store
	opts.Timing = &core.Timing{}
	res, err := core.RunBenchmark(target, opts)
	return res, store, opts.Timing, err
}

// TestCachePartialHitMatchesSerialOracle deletes one reference-trace
// entry at a time from a warm all-axes cache. The rerun executes the
// trace once, equals the serial oracle, rewrites exactly the missing
// entry and hits every other one. A forged entry that still hits next
// to a miss fails the run: a partial hit checks its hits.
func TestCachePartialHitMatchesSerialOracle(t *testing.T) {
	target := core.BuildFromAsm("phased", core.PhasedSrc(4000, 1000, 7782, 819))
	opts := partialOpts()
	want := serialOracle(t, target, opts)
	warm := t.TempDir()
	if _, _, _, err := runOn(t, target, opts, warm); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ kind, t string }{{"ref", ""}, {"bp", ""}, {"ls", ""}, {"sp", "4"}, {"sp", "16"}} {
		t.Run(c.kind+c.t, func(t *testing.T) {
			dir := core.CopyCache(t, warm)
			n := removeEntry(t, dir, c.kind, c.t)
			got, store, tm, err := runOn(t, target, opts, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "partial hit", got, want)
			if tm.BlocksExecuted.Load() == 0 {
				t.Fatal("partial hit executed no guest block")
			}
			cnt := store.Counters()
			if cnt.Misses != 1 || cnt.Stores != 1 || cnt.Errors != 0 || cnt.Hits != uint64(n-1) {
				t.Fatalf("counters %+v, want 1 miss, 1 store, 0 errors, %d hits", cnt, n-1)
			}
		})
	}

	t.Run("forged bp next to a ref miss", func(t *testing.T) {
		dir := core.CopyCache(t, warm)
		removeEntry(t, dir, "ref", "")
		core.ForgeBPEntry(t, dir)
		_, _, _, err := runOn(t, target, opts, dir)
		if err == nil || !strings.Contains(err.Error(), "cache verify: bp entry of phased") ||
			!strings.Contains(err.Error(), "diverges from recomputed result") {
			t.Fatalf("run over a forged bp entry returned %v, want the bp cache verify divergence", err)
		}
	})
}

// TestCollectLearnedDataSharesStudyEntries: CollectLearnedData and a
// study with Learned read and write the same `ls` entry. Each warms the
// other, and a verify-mode collection recomputes and passes.
func TestCollectLearnedDataSharesStudyEntries(t *testing.T) {
	target := core.BuildFromAsm("phased", core.PhasedSrc(4000, 1000, 7782, 819))
	lc := learned.DefaultConfig()
	opts := core.Options{Thresholds: []uint64{4, 16}, Perf: true, Learned: &lc, CacheContext: "test"}
	collect := func(dir string, verify bool) (*learned.BenchData, *resultcache.Store, *core.Timing) {
		t.Helper()
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Cache, o.Timing, o.CacheVerify = store, &core.Timing{}, verify
		data, err := core.CollectLearnedData(target, lc, o)
		if err != nil {
			t.Fatal(err)
		}
		return data, store, o.Timing
	}

	// Study first: the collection is served from the study's entry.
	studyDir := t.TempDir()
	res, _, _, err := runOn(t, target, opts, studyDir)
	if err != nil {
		t.Fatal(err)
	}
	data, store, tm := collect(studyDir, false)
	if n := tm.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("collection after a study executed %d blocks, want 0", n)
	}
	if c := store.Counters(); c.Hits != 1 || c.Misses != 0 {
		t.Fatalf("collection counters %+v, want one hit", c)
	}
	if !reflect.DeepEqual(data, res.Learned) {
		t.Fatal("collected data differs from the study's Learned")
	}

	// Verify mode recomputes and checks the entry.
	verified, store, tm := collect(studyDir, true)
	if tm.BlocksExecuted.Load() == 0 {
		t.Fatal("verify-mode collection executed no guest block")
	}
	if c := store.Counters(); c.Hits != 1 || c.Errors != 0 {
		t.Fatalf("verify collection counters %+v, want one hit, no errors", c)
	}
	if !reflect.DeepEqual(verified, res.Learned) {
		t.Fatal("verify-mode collected data differs from the study's Learned")
	}

	// Collection first: the study hits (and checks) the collected entry
	// and stores everything else.
	collectDir := t.TempDir()
	collected, _, tm := collect(collectDir, false)
	if tm.BlocksExecuted.Load() == 0 {
		t.Fatal("cold collection executed no guest block")
	}
	res2, store, _, err := runOn(t, target, opts, collectDir)
	if err != nil {
		t.Fatal(err)
	}
	if c := store.Counters(); c.Hits != 1 || c.Misses != c.Stores || c.Errors != 0 {
		t.Fatalf("study after a collection: counters %+v, want the ls hit and a store per miss", c)
	}
	if !reflect.DeepEqual(collected, res2.Learned) || !reflect.DeepEqual(res2, res) {
		t.Fatal("study after a collection differs from the cold study")
	}
}
