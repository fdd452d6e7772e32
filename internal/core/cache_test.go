package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/resultcache"
)

// cacheOpts is the option baseline of the caching tests: a couple of
// ladder rungs, the perf model on (so cached Cycles are exercised) and
// a Timing aggregate to observe guest-block volume.
func cacheOpts(t *testing.T, dir string) (Options, *Timing) {
	t.Helper()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{}
	return Options{
		Thresholds:   []uint64{4, 16},
		Perf:         true,
		Cache:        store,
		CacheContext: "test",
		Timing:       tm,
	}, tm
}

func runCached(t *testing.T, target Target, opts Options) *BenchmarkResult {
	t.Helper()
	out, err := RunBenchmark(target, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCacheColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))

	opts, tm := cacheOpts(t, dir)
	cold := runCached(t, target, opts)
	c := opts.Cache.Counters()
	if c.Hits != 0 || c.Stores == 0 {
		t.Fatalf("cold counters %+v, want 0 hits and some stores", c)
	}
	if tm.BlocksExecuted.Load() == 0 {
		t.Fatal("cold run executed no guest blocks")
	}

	// Warm: a fresh store handle over the same directory must serve the
	// whole benchmark without executing a single guest block, and the
	// result must be deeply equal to the cold one.
	opts2, tm2 := cacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	c2 := opts2.Cache.Counters()
	if c2.Hits == 0 || c2.Misses != 0 || c2.Stores != 0 {
		t.Fatalf("warm counters %+v, want only hits", c2)
	}
	if n := tm2.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("warm run executed %d guest blocks, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

func TestCacheDoesNotPerturbResults(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, t.TempDir())
	withCache := runCached(t, target, opts)

	plain := opts
	plain.Cache = nil
	plain.Timing = &Timing{}
	uncached := runCached(t, target, plain)
	if !reflect.DeepEqual(withCache, uncached) {
		t.Fatal("cold cached run differs from an uncached run")
	}
}

func TestCachePoisonedEntriesReExecute(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)

	// Damage every entry a different way: truncation, garbage, a bit
	// flip inside the value. The warm run must silently re-execute and
	// reproduce the cold results, then leave the store healed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold run left no cache entries")
	}
	for i, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			data = data[:len(data)/3]
		case 1:
			data = []byte("junk")
		case 2:
			data[len(data)/2] ^= 0x20
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	opts2, _ := cacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("results after cache poisoning differ from cold run")
	}
	c := opts2.Cache.Counters()
	if c.Hits != 0 || c.Errors == 0 || c.Stores == 0 {
		t.Fatalf("poisoned-run counters %+v, want no hits, some errors, rewrites", c)
	}

	// The rewrites must have healed the store: a third run is all hits.
	opts3, tm3 := cacheOpts(t, dir)
	healed := runCached(t, target, opts3)
	if n := tm3.BlocksExecuted.Load(); n != 0 {
		t.Fatalf("healed run executed %d blocks, want 0", n)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatal("healed run differs from cold run")
	}
}

func TestCacheVerifyCleanPass(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	cold := runCached(t, target, opts)

	opts2, tm2 := cacheOpts(t, dir)
	opts2.CacheVerify = true
	verified := runCached(t, target, opts2)
	if tm2.BlocksExecuted.Load() == 0 {
		t.Fatal("verify mode must execute for real")
	}
	c := opts2.Cache.Counters()
	if c.Hits == 0 {
		t.Fatalf("verify counters %+v, want hits (entries were present)", c)
	}
	if !reflect.DeepEqual(cold, verified) {
		t.Fatal("verify-mode result differs from cold run")
	}
}

func TestCacheVerifyCatchesForgedEntry(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := cacheOpts(t, dir)
	runCached(t, target, opts)

	// Forge a comparison entry the store itself accepts: only the
	// differential verify mode can catch this.
	var val cmpEntry
	forgeEntry(t, dir, "cmp", &val, func() { val.Summary.SdBP = 0.123456789 })

	opts2, _ := cacheOpts(t, dir)
	opts2.CacheVerify = true
	_, err := RunBenchmark(target, opts2)
	if err == nil || !strings.Contains(err.Error(), "cache verify") {
		t.Fatalf("verify over a forged entry returned %v, want a cache verify error", err)
	}

	// Without verify the forged-but-checksummed entry is served as-is;
	// that is the documented trust boundary, pinned here so a future
	// change that silently re-checks (and slows) every hit is noticed.
	opts3, _ := cacheOpts(t, dir)
	if _, err := RunBenchmark(target, opts3); err != nil {
		t.Fatalf("non-verify warm run failed: %v", err)
	}
}

// forgeEntry rewrites the first cache entry of the given kind: it
// decodes the value into v, lets mutate perturb it, re-encodes it and
// recomputes the header checksum, so the store serves the forged value
// as a valid hit.
func forgeEntry(t *testing.T, dir, kind string, v any, mutate func()) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		h, value := readEntryFile(t, p)
		if !strings.Contains(h.Key, "kind="+kind) {
			continue
		}
		if err := gob.NewDecoder(bytes.NewReader(value)).Decode(v); err != nil {
			t.Fatal(err)
		}
		mutate()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		h.Sum = hex.EncodeToString(sum[:])
		line, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append(append(line, '\n'), buf.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no %s entry found to forge", kind)
}

// TestCacheVerifyFailureRetiresLadderOnce: a verify mismatch on a
// sampled-ladder entry fails the reference unit before any comparison
// is spawned, so under Degrade every work item retires exactly once and
// onDone fires once, with the failure recorded and no ladder result
// published.
func TestCacheVerifyFailureRetiresLadderOnce(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := allAxesCacheOpts(t, dir)
	runCached(t, target, opts)
	var val spEntry
	forgeEntry(t, dir, "sp", &val, func() { val.Runs[0].Cycles++ })

	opts2, _ := allAxesCacheOpts(t, dir)
	opts2.CacheVerify = true
	s := NewSchedulerPolicy(2, Degrade)
	var done atomic.Int64
	var res *BenchmarkResult
	b := scheduleBenchmark(s, target, opts2, func(r *BenchmarkResult) { done.Add(1); res = r })
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 1 {
		t.Fatalf("onDone fired %d times, want 1", n)
	}
	b.mu.Lock()
	remaining := b.remaining
	b.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("remaining = %d after the benchmark reported, want 0", remaining)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Err, "cache verify") {
		t.Fatalf("failures = %+v, want one cache verify failure", res.Failures)
	}
	for i, r := range res.Results {
		if r.T != 0 {
			t.Fatalf("Results[%d] published despite the failed reference unit: %+v", i, r)
		}
	}
}

// entryHeader mirrors the JSON header line of a result-cache entry.
type entryHeader struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Sum    string `json:"sum"`
}

// readEntryFile splits a result-cache entry file into its parsed header
// line and the gob value bytes after it.
func readEntryFile(t *testing.T, path string) (entryHeader, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, value, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		t.Fatalf("%s: no header line", path)
	}
	var h entryHeader
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatalf("%s: header: %v", path, err)
	}
	return h, value
}

func TestCacheSkippedUnderFaultPlan(t *testing.T) {
	plan, err := faultinject.Parse("slow:other/ref:1ms")
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := cacheOpts(t, t.TempDir())
	opts.Faults = plan
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	runCached(t, target, opts)
	if c := opts.Cache.Counters(); c != (resultcache.Counters{}) {
		t.Fatalf("cache touched under an armed fault plan: %+v", c)
	}
}

func TestCacheSkippedWithoutTapeID(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	target.TapeID = nil
	opts, _ := cacheOpts(t, t.TempDir())
	runCached(t, target, opts)
	if c := opts.Cache.Counters(); c != (resultcache.Counters{}) {
		t.Fatalf("cache touched without a tape identity: %+v", c)
	}
}

// allAxesCacheOpts extends cacheOpts so a run stores every cache kind:
// ref and cmp (reference ladder), run and traincmp (training), bp
// (predictors), sp (sampled ladders) and ls (learned collection).
func allAxesCacheOpts(t *testing.T, dir string) (Options, *Timing) {
	t.Helper()
	opts, tm := cacheOpts(t, dir)
	opts.Predictors = predict.Names()
	opts.SamplePeriods = []uint64{4}
	lc := learned.DefaultConfig()
	opts.Learned = &lc
	return opts, tm
}

// cacheKinds maps every cache kind to a fresh decode target.
var cacheKinds = map[string]func() any{
	"ref":      func() any { return new(refEntry) },
	"run":      func() any { return new(runOutput) },
	"cmp":      func() any { return new(cmpEntry) },
	"traincmp": func() any { return new(trainCmpEntry) },
	"bp":       func() any { return new(bpEntry) },
	"sp":       func() any { return new(spEntry) },
	"ls":       func() any { return new(lsEntry) },
}

// TestCacheEntryKindsRoundTrip takes a real value of every cache kind
// from a tiny study, plus shapes with empty slices and maps, and checks
// that Put then Lookup reproduces it exactly as -cacheverify sees it
// (json.Marshal). It also checks, per kind, that a v2-format JSON entry
// at the key's path is a counted miss that the next Put replaces.
func TestCacheEntryKindsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := allAxesCacheOpts(t, dir)
	runCached(t, target, opts)

	values := map[string][]any{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		h, value := readEntryFile(t, filepath.Join(dir, e.Name()))
		kind := strings.TrimPrefix(strings.Split(h.Key, "|")[1], "kind=")
		newEntry, ok := cacheKinds[kind]
		if !ok {
			t.Fatalf("entry of unknown kind %q", kind)
		}
		v := newEntry()
		if err := gob.NewDecoder(bytes.NewReader(value)).Decode(v); err != nil {
			t.Fatalf("stored %s entry: %v", kind, err)
		}
		if r, ok := v.(interface{ restore() }); ok {
			r.restore()
		}
		values[kind] = append(values[kind], v)
	}
	for kind := range cacheKinds {
		if len(values[kind]) == 0 {
			t.Fatalf("the study stored no %s entry", kind)
		}
	}

	// The producers' empty shapes: allocated-but-empty slices (gob
	// decodes them as nil) and maps, and the predictor list's nil.
	emptySnap := func() *profile.Snapshot { return profile.NewSnapshot("p", "ref", 0, false) }
	values["ref"] = append(values["ref"], &refEntry{AVEP: emptySnap(), Runs: []runOutput{}})
	values["run"] = append(values["run"], &runOutput{Snapshot: emptySnap()})
	values["sp"] = append(values["sp"], &spEntry{Period: 4, Runs: []runOutput{}},
		&spEntry{Period: 4, Runs: []runOutput{{T: 4, Snapshot: emptySnap()}}})
	values["ls"] = append(values["ls"], &lsEntry{Fingerprint: "f", Data: learned.BenchData{Bench: "b", Sites: []learned.Site{}}})
	values["bp"] = append(values["bp"], &bpEntry{})
	values["cmp"] = append(values["cmp"], &cmpEntry{})
	values["traincmp"] = append(values["traincmp"], &trainCmpEntry{})

	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for kind, vs := range values {
		for i, want := range vs {
			k := resultcache.Key{Kind: kind, Image: "img", T: uint64(i)}
			if err := store.Put(k, want); err != nil {
				t.Fatal(err)
			}
			got := cacheKinds[kind]()
			if !lookupEntry(store, k, got) {
				t.Fatalf("%s value %d: miss after Put", kind, i)
			}
			wj, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wj, gj) {
				t.Errorf("%s value %d changed in the round trip:\nput    %s\nlookup %s", kind, i, wj, gj)
			}

			// Stale schema: the pre-gob JSON envelope at the same path.
			legacy, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(legacy)
			v2, err := json.Marshal(map[string]any{
				"schema": 2, "key": k.Fingerprint(), "sum": hex.EncodeToString(sum[:]),
				"value": json.RawMessage(legacy),
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(store.Dir(), k.Hash()+".json")
			if err := os.WriteFile(path, append(v2, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			before := store.Counters()
			if lookupEntry(store, k, cacheKinds[kind]()) {
				t.Fatalf("%s value %d: v2 entry served as a hit", kind, i)
			}
			after := store.Counters()
			if after.Errors != before.Errors+1 || after.Misses != before.Misses+1 {
				t.Fatalf("%s value %d: v2 entry counted %+v -> %+v, want one error and one miss", kind, i, before, after)
			}
			if err := store.Put(k, want); err != nil {
				t.Fatal(err)
			}
			if !lookupEntry(store, k, cacheKinds[kind]()) {
				t.Fatalf("%s value %d: Put did not replace the v2 entry", kind, i)
			}
		}
	}
}

// TestCacheVerifyAllKinds is the end-to-end form of the round trip:
// a warm verify-mode rerun with every axis on recomputes each unit and
// compares it to the cached value of every kind, so any value the codec
// does not reproduce exactly fails the run.
func TestCacheVerifyAllKinds(t *testing.T) {
	dir := t.TempDir()
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	opts, _ := allAxesCacheOpts(t, dir)
	cold := runCached(t, target, opts)

	opts2, _ := allAxesCacheOpts(t, dir)
	warm := runCached(t, target, opts2)
	if c := opts2.Cache.Counters(); c.Misses != 0 || c.Errors != 0 {
		t.Fatalf("warm counters %+v, want only hits", c)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm all-axes result differs from cold")
	}

	opts3, _ := allAxesCacheOpts(t, dir)
	opts3.CacheVerify = true
	verified := runCached(t, target, opts3)
	if c := opts3.Cache.Counters(); c.Hits == 0 || c.Errors != 0 {
		t.Fatalf("verify counters %+v, want hits and no errors", c)
	}
	if !reflect.DeepEqual(cold, verified) {
		t.Fatal("verify-mode all-axes result differs from cold")
	}
}

// TestCacheMismatchedEntriesAreMisses forges, for each trace consumer's
// kind, an entry the store serves (valid checksum) but whose shape does
// not match what the unit is about to serve. The consumer's match check
// turns it into a miss: the warm rerun re-executes, equals the cold run
// and rewrites exactly that entry.
func TestCacheMismatchedEntriesAreMisses(t *testing.T) {
	target := BuildFromAsm("stationary", stationarySrc(3000, 6144))
	warm := t.TempDir()
	opts, _ := allAxesCacheOpts(t, warm)
	cold := runCached(t, target, opts)

	var (
		ref refEntry
		sp  spEntry
		bp  bpEntry
		ls  lsEntry
		run runOutput
	)
	forges := []struct {
		kind   string
		v      any
		mutate func()
	}{
		{"ref", &ref, func() { ref.Runs = ref.Runs[:1] }},
		{"sp", &sp, func() { sp.Period++ }},
		{"bp", &bp, func() { bp.Results[0].Predictor = "other" }},
		{"ls", &ls, func() { ls.Data.Bench = "other" }},
		{"run", &run, func() { run.Snapshot = nil }},
	}
	for _, f := range forges {
		t.Run(f.kind, func(t *testing.T) {
			dir := copyCache(t, warm)
			forgeEntry(t, dir, f.kind, f.v, f.mutate)
			opts2, tm := allAxesCacheOpts(t, dir)
			got := runCached(t, target, opts2)
			if !reflect.DeepEqual(got, cold) {
				t.Fatal("rerun over a mismatched entry differs from the cold run")
			}
			if tm.BlocksExecuted.Load() == 0 {
				t.Fatal("a mismatched entry was replayed")
			}
			if c := opts2.Cache.Counters(); c.Stores != 1 || c.Misses != 0 || c.Errors != 0 {
				t.Fatalf("counters %+v, want the mismatched entry rewritten and nothing else", c)
			}
		})
	}
}

// copyCache copies a cache directory's entry files into a fresh one.
func copyCache(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
