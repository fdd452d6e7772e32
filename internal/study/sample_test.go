package study

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/spec"
)

// samplingConfig is the small fixed configuration the sampling
// determinism tests run: two benchmarks (one INT, one FP) over a short
// accuracy ladder with the given sampled-profiling periods.
func samplingConfig(parallelism int, periods []uint64) Config {
	var benches []*spec.Benchmark
	for _, n := range []string{"gzip", "swim"} {
		benches = append(benches, spec.ByName(n))
	}
	return Config{
		Scale:         0.001,
		Thresholds:    []float64{100, 1e3},
		Benchmarks:    benches,
		Parallelism:   parallelism,
		SamplePeriods: periods,
	}
}

// sampleFigBytes renders the figs1/figs2 pair as JSON for byte
// comparison. The figures are rendered directly — the short ladders
// these tests run are not enough thresholds for the full paper figure
// set, which the golden tests cover on the frozen configuration.
func sampleFigBytes(t *testing.T, res *Results) []byte {
	t.Helper()
	figs := res.sampleFigures()
	if len(figs) != 2 || figs[0].ID != "figs1" || figs[1].ID != "figs2" {
		t.Fatalf("sampleFigures did not yield figs1/figs2")
	}
	b, err := json.Marshal(figs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSamplingDoesNotPerturbStudyResults pins the tentpole's
// compatibility contract end to end: a study with sampled ladders
// reports the exact measurement data of one without, and only appends
// figures — the paper figure set stays byte-identical.
func TestSamplingDoesNotPerturbStudyResults(t *testing.T) {
	plainRes, err := Run(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.Perf.SampledUnits != 0 || plainRes.Perf.SampledProfilingOps != 0 {
		t.Fatalf("sampling-less run reports sampled work: %+v", plainRes.Perf)
	}

	sampled := goldenConfig(t)
	sampled.SamplePeriods = []uint64{1, 4, 16}
	sampledRes, err := Run(sampled)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plainRes.Series {
		p, q := plainRes.Series[i], sampledRes.Series[i]
		if len(q.Sampling) != 3 {
			t.Fatalf("%s: %d sampled ladders, want 3", q.Name, len(q.Sampling))
		}
		q.Sampling = nil
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: measurement data changed when sampled ladders ride along", p.Name)
		}
	}

	plainFigs, sampledFigs := plainRes.Figures(), sampledRes.Figures()
	if len(sampledFigs) != len(plainFigs)+2 {
		t.Fatalf("sampled run has %d figures, want %d (+figs1/figs2)", len(sampledFigs), len(plainFigs))
	}
	a, err := json.Marshal(plainFigs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sampledFigs[:len(plainFigs)])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("paper figures are not byte-identical when sampled ladders ride along")
	}
	if sampledFigs[len(plainFigs)].ID != "figs1" || sampledFigs[len(plainFigs)+1].ID != "figs2" {
		t.Errorf("appended figures are %q, %q; want figs1, figs2",
			sampledFigs[len(plainFigs)].ID, sampledFigs[len(plainFigs)+1].ID)
	}
}

// TestSamplingDeterminismAcrossWorkersAndModes is the satellite
// determinism requirement at the study level: the same periods produce
// byte-identical figs1/figs2 across repeat runs and worker counts — the
// sampling stride depends only on each engine's own block-event count,
// which neither knob shapes. Sampled rungs are checked against their
// own serial runs in core's oracle test.
func TestSamplingDeterminismAcrossWorkersAndModes(t *testing.T) {
	periods := []uint64{1, 4, 16}
	ref, err := Run(samplingConfig(1, periods))
	if err != nil {
		t.Fatal(err)
	}
	refFigs := sampleFigBytes(t, ref)
	for _, alt := range []struct {
		name string
		cfg  Config
	}{
		{"repeat run", samplingConfig(1, periods)},
		{"maxprocs workers", samplingConfig(runtime.GOMAXPROCS(0), periods)},
	} {
		got, err := Run(alt.cfg)
		if err != nil {
			t.Fatalf("%s: %v", alt.name, err)
		}
		for i := range ref.Series {
			if !reflect.DeepEqual(got.Series[i].Sampling, ref.Series[i].Sampling) {
				t.Errorf("%s: %s sampled ladders diverge", alt.name, ref.Series[i].Name)
			}
		}
		if gotFigs := sampleFigBytes(t, got); !reflect.DeepEqual(gotFigs, refFigs) {
			t.Errorf("%s: figs1/figs2 are not byte-identical", alt.name)
		}
	}

	// Follower-count variation: in shared-trace mode every period adds
	// followers to the one reference execution, so running period 4
	// alone and running it inside a larger ladder are different
	// follower counts over the same trace. The period's results must
	// not notice.
	alone, err := Run(samplingConfig(runtime.GOMAXPROCS(0), []uint64{4}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Series {
		if !reflect.DeepEqual(alone.Series[i].Sampling[0], ref.Series[i].Sampling[1]) {
			t.Errorf("%s: period-4 ladder differs between follower-count variations", ref.Series[i].Name)
		}
	}
}

// TestSamplePeriodOneEqualsFull proves period 1 byte-equal to full
// instrumentation end to end: every rung of the period-1 ladder carries
// the exact summary, profiling-op count and model cycles of the
// full-instrumentation rung it shadows.
func TestSamplePeriodOneEqualsFull(t *testing.T) {
	cfg := samplingConfig(0, []uint64{1, 16})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Series {
		s := &res.Series[i]
		one := s.Sampling[0]
		if one.Period != 1 {
			t.Fatalf("%s: first ladder has period %d, want 1", s.Name, one.Period)
		}
		for ti, sp := range one.PerT {
			full := s.PerT[ti]
			if !reflect.DeepEqual(sp.Summary, full.Summary) {
				t.Errorf("%s T=%d: period-1 summary differs from full instrumentation", s.Name, full.T)
			}
			if sp.ProfilingOps != full.ProfilingOps {
				t.Errorf("%s T=%d: period-1 profiling ops %d, full %d", s.Name, full.T, sp.ProfilingOps, full.ProfilingOps)
			}
			if sp.Cycles != full.Cycles {
				t.Errorf("%s T=%d: period-1 cycles %v, full %v", s.Name, full.T, sp.Cycles, full.Cycles)
			}
		}
		// And a period > 1 must actually shed profiling work, or the
		// frontier measures nothing.
		var sampled, full uint64
		for ti, sp := range s.Sampling[1].PerT {
			sampled += sp.ProfilingOps
			full += s.PerT[ti].ProfilingOps
		}
		if sampled >= full {
			t.Errorf("%s: period-16 ladder performed %d profiling ops, full %d — sampling saved nothing", s.Name, sampled, full)
		}
	}
}

// TestSampledPerfCounters is the satellite regression test for
// study.Perf: sampled units report their sampled (not raw) counter
// updates, and every derived rate is finite at the period boundaries.
func TestSampledPerfCounters(t *testing.T) {
	res, err := Run(samplingConfig(0, []uint64{1, 16}))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perf
	// 2 benchmarks × 2 periods × 1 distinct rung: at scale 0.001 both
	// paper thresholds clamp to the same effective threshold, so each
	// period executes one deduplicated run per benchmark.
	if p.SampledUnits != 4 {
		t.Errorf("SampledUnits = %d, want 4", p.SampledUnits)
	}
	if p.SampledProfilingOps == 0 {
		t.Error("SampledProfilingOps = 0 after sampled ladders ran")
	}
	// The sampled total counts actual counter updates, so it must be
	// strictly smaller than charging every unit at full instrumentation
	// would be — the period-16 ladders shed most of their updates.
	var fullTwice uint64
	for i := range res.Series {
		for _, tr := range res.Series[i].PerT {
			fullTwice += 2 * tr.ProfilingOps
		}
	}
	if p.SampledProfilingOps >= fullTwice {
		t.Errorf("SampledProfilingOps = %d, not below the full-instrumentation bound %d (raw counts leaked through?)",
			p.SampledProfilingOps, fullTwice)
	}
	for _, v := range []float64{p.SampledOpsPerSec, p.BlocksPerSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite rate in Perf: %+v", p)
		}
	}
	if p.SampledOpsPerSec <= 0 {
		t.Errorf("SampledOpsPerSec = %v, want > 0 for a timed run with sampled work", p.SampledOpsPerSec)
	}
}

// TestGoldenSamplingFigures pins the sampling corpus: the frozen golden
// configuration with a period ladder must render figs1/figs2
// byte-identically to the committed file. The paper figures of that run
// are covered transitively — the perturbation test proves them equal to
// the sampling-less corpus.
func TestGoldenSamplingFigures(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.SamplePeriods = []uint64{1, 4, 16, 64}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	figs := res.Figures()
	if len(figs) < 2 {
		t.Fatalf("only %d figures", len(figs))
	}
	spFigs := figs[len(figs)-2:]
	if spFigs[0].ID != "figs1" || spFigs[1].ID != "figs2" {
		t.Fatalf("trailing figures are %q, %q; want figs1, figs2", spFigs[0].ID, spFigs[1].ID)
	}
	got, err := json.MarshalIndent(spFigs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_sampling.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden_sampling.json drifted from the committed corpus (regenerate with -update if intended)")
	}
}

// TestSamplingCacheWarmRerun extends the warm-rerun guarantee to the sp
// entry kind: a warm rerun with the same period ladder executes zero
// guest blocks (and zero sampled units) while replaying identical
// ladders, a changed ladder re-executes, and the differential verify
// pass covers sp entries.
func TestSamplingCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	withCache := func(periods []uint64) Config {
		cfg := samplingConfig(0, periods)
		store, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = store
		return cfg
	}

	coldRes, err := Run(withCache([]uint64{1, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Perf.BlocksExecuted == 0 || coldRes.Perf.SampledUnits == 0 {
		t.Fatalf("cold study executed nothing: %+v", coldRes.Perf)
	}

	warmRes, err := Run(withCache([]uint64{1, 16}))
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Perf.BlocksExecuted != 0 {
		t.Fatalf("warm rerun executed %d guest blocks, want 0 (sp entries should replay)", warmRes.Perf.BlocksExecuted)
	}
	if warmRes.Perf.SampledUnits != 0 || warmRes.Perf.SampledProfilingOps != 0 {
		t.Fatalf("warm rerun reports sampled execution: %+v", warmRes.Perf)
	}
	if !reflect.DeepEqual(coldRes.Series, warmRes.Series) {
		t.Fatal("warm series (including sampled ladders) differ from cold")
	}

	// A different period ladder misses the sp entry: the reference
	// trace re-executes to feed it, and the shared period's ladder
	// agrees with the cold run's.
	altRes, err := Run(withCache([]uint64{16, 64}))
	if err != nil {
		t.Fatal(err)
	}
	if altRes.Perf.BlocksExecuted == 0 {
		t.Fatal("changed period ladder must re-execute")
	}
	for i := range altRes.Series {
		got, want := altRes.Series[i].Sampling[0], coldRes.Series[i].Sampling[1]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: period-16 ladder changed across period selections", altRes.Series[i].Name)
		}
	}

	// -cacheverify covers sp entries: everything re-executes against
	// the warmed store and must agree with it.
	vcfg := withCache([]uint64{1, 16})
	vcfg.CacheVerify = true
	vres, err := Run(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if vres.Perf.BlocksExecuted == 0 || vres.Perf.SampledUnits == 0 {
		t.Fatal("verify mode must re-execute the sampled ladders for real")
	}
	if vres.Perf.ResultCacheHits == 0 {
		t.Fatal("verify run saw no cache hits over a warmed store")
	}
	if !reflect.DeepEqual(coldRes.Series, vres.Series) {
		t.Fatal("verify-mode series differ from cold series")
	}
}

// TestSamplingCheckpointCompatibility: sampled studies checkpoint and
// resume like any other, and a checkpoint written with one period
// ladder refuses to resume a run with another — mixing them would
// silently drop or fabricate sampled figures.
func TestSamplingCheckpointCompatibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := samplingConfig(0, []uint64{1, 16})
	cfg.Checkpoint = path
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	resumeCfg := samplingConfig(0, []uint64{1, 16})
	resumeCfg.Checkpoint = path
	resumeCfg.Resume = true
	resumed, err := Run(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Perf.ResumedSeries != len(resumed.Series) {
		t.Fatalf("resumed %d of %d series", resumed.Perf.ResumedSeries, len(resumed.Series))
	}
	if !reflect.DeepEqual(first.Series, resumed.Series) {
		t.Fatal("resumed series (including sampled ladders) differ")
	}
	if !reflect.DeepEqual(sampleFigBytes(t, first), sampleFigBytes(t, resumed)) {
		t.Fatal("figs1/figs2 are not byte-identical across kill-and-resume")
	}

	mismatch := samplingConfig(0, []uint64{4})
	mismatch.Checkpoint = path
	mismatch.Resume = true
	if _, err := Run(mismatch); err == nil {
		t.Fatal("resume with a different period ladder must be rejected")
	}
}

// TestValidateRejectsBadSamplePeriods covers the config-level gate.
func TestValidateRejectsBadSamplePeriods(t *testing.T) {
	for _, periods := range [][]uint64{{0}, {16, 16}} {
		cfg := Config{Scale: 1, Thresholds: []float64{100}, Benchmarks: []*spec.Benchmark{spec.ByName("gzip")}, SamplePeriods: periods}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted sample periods %v", periods)
		}
	}
}
