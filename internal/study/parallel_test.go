package study

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

// runDeterminism executes a reduced study with the given knobs.
func runDeterminism(t *testing.T, parallelism int) *Results {
	t.Helper()
	res, err := Run(Config{
		Scale:       0.001,
		Thresholds:  []float64{1, 100, 1e3, 1e5},
		Benchmarks:  []*spec.Benchmark{spec.ByName("gzip"), spec.ByName("mesa"), spec.ByName("vpr")},
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDeterministicAcrossParallelism: the run-level scheduler must
// not change any result — every series is identical whatever the worker
// count.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	ref := runDeterminism(t, 1)
	for _, parallelism := range []int{2, 8} {
		got := runDeterminism(t, parallelism)
		if !reflect.DeepEqual(got.Series, ref.Series) {
			t.Fatalf("parallelism=%d: series differ from the 1-worker run", parallelism)
		}
	}
}

// TestRunProgressLines: progress reporting must emit one line per
// benchmark (formatted outside the result lock).
func TestRunProgressLines(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Config{
		Scale:       0.001,
		Thresholds:  []float64{100},
		Benchmarks:  []*spec.Benchmark{spec.ByName("gzip"), spec.ByName("swim")},
		Parallelism: 4,
		Progress:    &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("progress lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "done ") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
}

// TestRunReportsPerf: the perf summary must carry wall-clock and run
// volume for the benchjson emitter.
func TestRunReportsPerf(t *testing.T) {
	res := runDeterminism(t, 2)
	p := res.Perf
	if p.WallSeconds <= 0 || p.BlocksExecuted == 0 || p.BlocksPerSec <= 0 {
		t.Fatalf("perf summary incomplete: %+v", p)
	}
	if p.RefRunSeconds <= 0 || p.TrainSeconds <= 0 {
		t.Fatalf("phase timing missing: %+v", p)
	}
	if p.Workers != 2 {
		t.Fatalf("workers = %d, want 2", p.Workers)
	}
}
