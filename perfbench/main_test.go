package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

// The benchmark's own tests run every workload at a tiny size against
// an oracle generated on the spot, and check the report against the
// metric lists in BENCHMARK.json.

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyBenches() []*spec.Benchmark {
	return []*spec.Benchmark{spec.ByName("gzip"), spec.ByName("swim")}
}

// tinyWorkloads returns each workload shrunk to two benchmarks at a
// tiny scale.
func tinyWorkloads() map[string]workload {
	paper := suitePaper()
	paper.scale, paper.benches = 0.001, tinyBenches()
	axes := suiteAxes()
	axes.scale, axes.benches = 0.001, tinyBenches()
	mix := serveMix()
	mix.scale, mix.benches = 0.001, tinyBenches()
	mix.steps, mix.coalesced = 4, 1
	mix.figures = paper
	return map[string]workload{"suite_paper": paper, "suite_axes": axes, "serve_mix": mix}
}

// tinyOptions writes the workload's oracle into a temporary benchmark
// directory and returns options for a short run.
func tinyOptions(t *testing.T, name string, w workload) *options {
	t.Helper()
	dir := t.TempDir()
	exp, err := w.generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeExpected(dir, exp); err != nil {
		t.Fatal(err)
	}
	if name == "serve_mix" {
		// serve_mix times figure rendering over a suite oracle.
		exp, err := w.(*serveWorkload).figures.generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeExpected(dir, exp); err != nil {
			t.Fatal(err)
		}
	}
	return &options{workload: name, seed: 7, seconds: 0.01, dir: dir, work: t.TempDir()}
}

func checkMetrics(t *testing.T, r *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(r.metrics) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json lists %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for name, w := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			o := tinyOptions(t, name, w)
			r, err := w.measure(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("untraced run: %d of %d failed: %s", r.failed, r.attempted, r.firstDiff)
			}
			checkMetrics(t, r, bf.EndToEnd)
			for _, n := range []string{"wall_s", "blocks_per_s", "setup_s", "peak_rss_mb", "compare_p50_ms", "compare_tail_ms"} {
				if r.metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, r.metrics[n].Value)
				}
			}
			tr, err := w.traced(o)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 || tr.attempted == 0 {
				t.Fatalf("traced run: %d of %d failed: %s", tr.failed, tr.attempted, tr.firstDiff)
			}
			checkMetrics(t, tr, bf.PerLayer)
		})
	}
}

// A corrupted expected result must count as a failure.
func TestCorruptOracleFails(t *testing.T) {
	for name, w := range tinyWorkloads() {
		if name == "suite_axes" {
			continue // same check path as suite_paper
		}
		t.Run(name, func(t *testing.T) {
			o := tinyOptions(t, name, w)
			exp, err := loadExpected(o.dir, name, w.config())
			if err != nil {
				t.Fatal(err)
			}
			corrupt := func(m map[string]json.RawMessage) {
				for k, raw := range m {
					// Every series and body carries an SdBP or sd_bp
					// value; change the first digit after it.
					s := string(raw)
					i := strings.Index(s, `"SdBP":`)
					if i < 0 {
						i = strings.Index(s, `"sd_bp":`)
					}
					if i < 0 {
						t.Fatalf("%s: no SdBP field to corrupt", k)
					}
					j := i + strings.IndexAny(s[i:], "123456789")
					d := s[j] + 1
					if d > '9' {
						d = '1'
					}
					m[k] = json.RawMessage(s[:j] + string(d) + s[j+1:])
				}
			}
			corrupt(exp.Series)
			corrupt(exp.Bodies)
			if err := writeExpected(o.dir, exp); err != nil {
				t.Fatal(err)
			}
			r, err := w.measure(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("corrupted oracle: failed_frac = 0 over %d attempts", r.attempted)
			}
		})
	}
}

func TestSameJSON(t *testing.T) {
	for _, c := range []struct {
		want, got string
		same      bool
	}{
		{`{"a":1,"b":[0.5,2]}`, `{"b":[0.5,2],"a":1}`, true},
		{`{"a":1}`, `{"a":2}`, false},
		{`{"a":1}`, `{"a":1,"b":0}`, false},
		{`{"x":0.1}`, `{"x":0.10000000000000002}`, true},
		{`{"x":0.1}`, `{"x":0.1000001}`, false},
		{`[1,2]`, `[1]`, false},
	} {
		if got := sameJSON([]byte(c.want), []byte(c.got)) == ""; got != c.same {
			t.Errorf("sameJSON(%s, %s) = %v, want %v", c.want, c.got, got, c.same)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {20, 50}, {100, 90}, {208, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
