// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every output against a stored
// oracle, and prints its metrics; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload suite_paper -seed 1 -seconds 35 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 a separate traced run times calls into
// each layer's public functions and reports the per-layer metrics.
// -gen regenerates the oracles from the serial per-config path.
//
// Run it through run.sh from the repository root, which builds it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	// dir is the benchmark's own directory (it holds expected/).
	dir string
	// work is a scratch directory for result caches; it is created and
	// removed by the run.
	work string
}

// workload is one named traffic mix.
type workload interface {
	config() string
	generate() (*expectedFile, error)
	measure(o *options) (*report, error)
	traced(o *options) (*report, error)
}

func workloads() map[string]workload {
	return map[string]workload{
		"suite_paper": suitePaper(),
		"suite_axes":  suiteAxes(),
		"serve_mix":   serveMix(),
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	var gen bool
	fs.StringVar(&o.workload, "workload", "", "workload: suite_paper, suite_axes or serve_mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 35, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.dir, "dir", "perfbench", "benchmark directory (holds expected/)")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.BoolVar(&gen, "gen", false, "regenerate the oracle of -workload (all when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if gen {
		return generate(o.dir, o.workload)
	}
	w, ok := workloads()[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work

	host := hostInfo(o.dir)
	var r *report
	if trace == 1 {
		r, err = w.traced(&o)
	} else {
		r, err = w.measure(&o)
	}
	if err != nil {
		return err
	}
	return r.print(stdout, host)
}

func generate(dir, only string) error {
	for name, w := range workloads() {
		if only != "" && name != only {
			continue
		}
		start := time.Now()
		exp, err := w.generate()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := writeExpected(dir, exp); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s in %.1fs\n", expectedPath(dir, name), time.Since(start).Seconds())
	}
	return nil
}

// workers is the pool size every workload runs with.
func workers() int { return runtime.GOMAXPROCS(0) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in print order, its correctness
// counts and free-form notes.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	firstDiff string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) count(attempted, failed int, firstDiff string) {
	r.attempted += attempted
	r.failed += failed
	if r.firstDiff == "" {
		r.firstDiff = firstDiff
	}
}

// endToEnd records the metrics every workload reports with tracing off.
// tailN is the latency sample count the workload's minimum repetition
// count guarantees; it fixes the tail percentile.
func (r *report) endToEnd(walls, bps, rss []float64, setupS float64, lat []float64, tailN int) {
	r.add("wall_s", median(walls), "s")
	r.add("blocks_per_s", median(bps), "1/s")
	r.add("setup_s", setupS, "s")
	r.add("peak_rss_mb", median(rss), "MB")
	r.add("compare_p50_ms", median(lat), "ms")
	p := tailPercentile(tailN)
	r.add("compare_tail_ms", percentile(lat, p), "ms")
	r.note("compare_tail_ms is p%g over %d samples", p, len(lat))
}

func (r *report) print(w io.Writer, host hostRecord) error {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s (%d of %d)\n", "failed_frac", failedFrac, "fraction", r.failed, r.attempted)
	if r.firstDiff != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.firstDiff)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", hb)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setupRounds is how many times set-up is repeated; its median is
// setup_s.
const setupRounds = 9

// timeSetup runs f setupRounds times and returns the median duration
// in seconds. The cleanup f returns is called after each round, outside
// the timing.
func timeSetup(f func() (cleanup func(), err error)) (float64, error) {
	var ds []float64
	for range setupRounds {
		start := time.Now()
		cleanup, err := f()
		ds = append(ds, time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
		cleanup()
	}
	return median(ds), nil
}

// minReps is the repetition count every run reaches, whatever its
// length: enough for a stable median, and the count that fixes the tail
// percentile.
const minReps = 8

// repeat runs one repetition after another for about seconds: it stops
// once minReps repetitions are done and another one of median length
// would overrun. rep returns the duration it measured. Before each
// repetition, outside its timing, repeat collects garbage, returns
// freed memory to the OS and resets the peak-RSS mark, so every
// repetition starts from the same state; it returns each repetition's
// peak RSS in MB.
func repeat(seconds float64, minReps int, rep func() (float64, error)) ([]float64, error) {
	start := time.Now()
	var ds, rss []float64
	for {
		debug.FreeOSMemory()
		resetPeakRSS()
		d, err := rep()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
		rss = append(rss, peakRSSMB())
		if len(ds) >= minReps && time.Since(start).Seconds()+median(ds) > seconds {
			return rss, nil
		}
	}
}

// resetPeakRSS resets the kernel's peak-RSS mark of this process. Where
// that is not possible the peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak resident set since the last reset.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// hostRecord identifies the machine and the code a result came from. It
// is printed beside the metrics, not as one.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes the module's Go sources and go.mod files, so
	// a checkout without version-control data is still identified.
	SourceSHA256 string `json:"source_sha256"`
	// CalibrationMops is the score of a fixed integer kernel measured
	// in this run (million kernel steps per second, median of three).
	CalibrationMops float64 `json:"calibration_mops"`
}

func hostInfo(dir string) hostRecord {
	h := hostRecord{
		CPUModel:        cpuModel(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Commit:          "unknown",
		SourceSHA256:    sourceHash(filepath.Join(dir, "..")),
		CalibrationMops: calibrate(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes every .go and go.mod file under root, by relative
// path and content, skipping hidden directories.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// calibrate scores a fixed kernel — xorshift steps feeding a 64 KiB
// table of counters — so results from different hosts can be scaled.
func calibrate() float64 {
	const steps = 1 << 24
	var scores []float64
	var sink uint64
	for range 3 {
		var table [1 << 13]uint64
		x := uint64(88172645463325252)
		start := time.Now()
		for range steps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<13-1)] += x
		}
		scores = append(scores, steps/time.Since(start).Seconds()/1e6)
		sink += table[0]
	}
	calibrationSink = sink
	return median(scores)
}

// calibrationSink keeps the kernel's result alive.
var calibrationSink uint64
