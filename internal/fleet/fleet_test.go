package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/learned"
	"repro/internal/spec"
	"repro/internal/study"
)

// testStudy is the reduced configuration every fleet test distributes:
// three benchmarks, a short ladder, the smallest scale.
func testStudy(t *testing.T, benches ...string) study.Config {
	t.Helper()
	if len(benches) == 0 {
		benches = []string{"gzip", "swim", "mcf"}
	}
	var bs []*spec.Benchmark
	for _, n := range benches {
		b := spec.ByName(n)
		if b == nil {
			t.Fatalf("unknown benchmark %q", n)
		}
		bs = append(bs, b)
	}
	return study.Config{
		Scale:      0.001,
		Thresholds: []float64{1, 100, 1e4},
		Benchmarks: bs,
		Policy:     core.Degrade,
	}
}

// figJSON renders the figure corpus for byte comparison.
func figJSON(t *testing.T, res *study.Results) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res.Figures(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleetHarness runs a coordinator behind an httptest server plus a set
// of in-process workers.
type fleetHarness struct {
	c       *Coordinator
	srv     *httptest.Server
	workers []*Worker
	cancels []context.CancelFunc
	wg      sync.WaitGroup
	errs    []error
	mu      sync.Mutex
}

// startFleet builds the harness: the coordinator is served over real
// HTTP, and each worker config (Coordinator filled in here) runs in
// its own goroutine with its own cancel.
func startFleet(t *testing.T, cfg Config, wcfgs []WorkerConfig) *fleetHarness {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &fleetHarness{c: c, srv: httptest.NewServer(c.Handler())}
	for _, wc := range wcfgs {
		h.addWorker(t, wc)
	}
	t.Cleanup(func() {
		h.cancelAll()
		h.wg.Wait()
		h.srv.Close()
		h.c.Close()
	})
	return h
}

// addWorker starts one more worker against the harness coordinator and
// returns its index (usable with cancel/workerErr). Safe to call while
// the fleet is running.
func (h *fleetHarness) addWorker(t *testing.T, wc WorkerConfig) int {
	t.Helper()
	wc.Coordinator = h.srv.URL
	if wc.PollInterval == 0 {
		wc.PollInterval = 10 * time.Millisecond
	}
	if wc.MaxOffline == 0 {
		wc.MaxOffline = 10 * time.Second
	}
	w, err := NewWorker(wc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.mu.Lock()
	i := len(h.workers)
	h.workers = append(h.workers, w)
	h.cancels = append(h.cancels, cancel)
	h.errs = append(h.errs, nil)
	h.mu.Unlock()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		err := w.Run(ctx)
		h.mu.Lock()
		h.errs[i] = err
		h.mu.Unlock()
	}()
	return i
}

// cancel stops worker i; cancelAll stops every worker started so far.
func (h *fleetHarness) cancel(i int) {
	h.mu.Lock()
	c := h.cancels[i]
	h.mu.Unlock()
	c()
}

func (h *fleetHarness) cancelAll() {
	h.mu.Lock()
	cancels := append([]context.CancelFunc(nil), h.cancels...)
	h.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// run drives the coordinator's study to its end and shuts the workers
// down.
func (h *fleetHarness) run(t *testing.T) (*study.Results, error) {
	t.Helper()
	res, err := h.c.Run()
	h.cancelAll()
	h.wg.Wait()
	return res, err
}

// workerErr returns what worker i's Run returned.
func (h *fleetHarness) workerErr(i int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.errs[i]
}

// waitLeased polls the coordinator until at least n units are leased.
func (h *fleetHarness) waitLeased(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		leased := 0
		for _, u := range h.c.StatusSnapshot().Units {
			if u.State == "leased" {
				leased++
			}
		}
		if leased >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d leased units", n)
}

// TestFleetByteIdenticalAcrossWorkerCounts is the tentpole determinism
// claim: a 1-worker fleet, a 3-worker fleet and the in-process study
// all emit byte-identical figures (and deep-equal series).
func TestFleetByteIdenticalAcrossWorkerCounts(t *testing.T) {
	local, err := study.Run(testStudy(t))
	if err != nil {
		t.Fatal(err)
	}
	want := figJSON(t, local)

	for _, n := range []int{1, 3} {
		wcfgs := make([]WorkerConfig, n)
		for i := range wcfgs {
			wcfgs[i] = WorkerConfig{Workers: 2}
		}
		h := startFleet(t, Config{Study: testStudy(t), LeaseTTL: 5 * time.Second}, wcfgs)
		res, err := h.run(t)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if got := figJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%d-worker fleet figures differ from the in-process study", n)
		}
		if len(res.Failures) != 0 {
			t.Fatalf("%d workers: unexpected failures: %v", n, res.Failures)
		}
		m := h.c.Counters()
		if m.Completions != 3 {
			t.Fatalf("%d workers: completions = %d, want 3 (settled exactly once each)", n, m.Completions)
		}
	}
}

// TestFleetWorkerKilledMidRun: a worker whose unit stalls (injected
// 1h delay) is killed mid-study; its lease expires once its heartbeats
// stop, the unit is reassigned to a surviving worker, and the figures
// are byte-identical to a clean run.
func TestFleetWorkerKilledMidRun(t *testing.T) {
	local, err := study.Run(testStudy(t))
	if err != nil {
		t.Fatal(err)
	}
	stall, err := faultinject.Parse("slow:*/ref:1h")
	if err != nil {
		t.Fatal(err)
	}
	// The stalled worker starts alone so it is guaranteed to hold a
	// lease; the healthy workers join only after it is killed. While
	// alive it heartbeats, so the lease stays legitimately held — death
	// is what stops the heartbeats and lets expiry reassign.
	h := startFleet(t, Config{Study: testStudy(t), LeaseTTL: 300 * time.Millisecond, MaxAttempts: 5}, []WorkerConfig{
		{ID: "stalled", Workers: 2, Faults: stall},
	})
	go func() {
		h.waitLeased(t, 1)
		h.cancel(0)
		h.addWorker(t, WorkerConfig{ID: "healthy-1", Workers: 2})
		h.addWorker(t, WorkerConfig{ID: "healthy-2", Workers: 2})
	}()
	res, err := h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got := figJSON(t, res); !bytes.Equal(got, figJSON(t, local)) {
		t.Fatal("fleet figures differ from the in-process study after worker loss")
	}
	m := h.c.Counters()
	if m.Expiries < 1 || m.Reassignments < 1 {
		t.Fatalf("expected lease expiry and reassignment, got %+v", m)
	}
}

// TestFleetRepeatedLossSurfacesUnitFailure (the Degrade robustness
// satellite): a unit whose worker dies on every lease exhausts
// MaxAttempts and surfaces a structured UnitFailure carrying the
// attempt history, while the surviving benchmarks' figures stay
// byte-identical to a clean run of the survivors.
func TestFleetRepeatedLossSurfacesUnitFailure(t *testing.T) {
	// Both workers stall on gzip's reference run and have their
	// heartbeats severed, so each lease of gzip expires; every other
	// benchmark completes before its (never-extended) deadline.
	plan := func() *faultinject.Plan {
		p, err := faultinject.Parse("slow:gzip/ref:1h,net:sever:heartbeat")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := startFleet(t, Config{
		Study:       testStudy(t),
		LeaseTTL:    400 * time.Millisecond,
		MaxAttempts: 2,
	}, []WorkerConfig{
		{ID: "doomed-1", Workers: 2, Faults: plan()},
		{ID: "doomed-2", Workers: 2, Faults: plan()},
	})
	res, err := h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one (gzip)", res.Failures)
	}
	f := res.Failures[0]
	if f.Bench != "gzip" || f.Attempts != 2 {
		t.Fatalf("failure = %+v, want gzip after 2 attempts", f)
	}
	for _, needle := range []string{"attempt 1", "attempt 2", "expired"} {
		if !strings.Contains(f.Err, needle) {
			t.Fatalf("failure err %q missing attempt history marker %q", f.Err, needle)
		}
	}
	// Survivors byte-identical to a clean study of the survivors.
	clean, err := study.Run(testStudy(t, "swim", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"swim", "mcf"} {
		got, want := res.ByName(name), clean.ByName(name)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("surviving series %s differs from a clean run", name)
		}
	}
	if h.c.Counters().UnitsFailed != 1 {
		t.Fatalf("units_failed = %d, want 1", h.c.Counters().UnitsFailed)
	}
}

// TestFleetNetworkFaultMatrix drives the drop/delay/dup paths through
// one worker: a dropped completion response forces a retry against an
// already-settled unit, a duplicated request delivers twice, and both
// are absorbed by completion idempotency — every unit settles exactly
// once and the figures are untouched.
func TestFleetNetworkFaultMatrix(t *testing.T) {
	local, err := study.Run(testStudy(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := faultinject.Parse("net:delay:lease:20ms*2,net:drop:complete@1*1,net:dup:complete@2*1")
	if err != nil {
		t.Fatal(err)
	}
	h := startFleet(t, Config{Study: testStudy(t), LeaseTTL: 5 * time.Second}, []WorkerConfig{
		{ID: "flaky-net", Workers: 2, Faults: p},
	})
	res, err := h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got := figJSON(t, res); !bytes.Equal(got, figJSON(t, local)) {
		t.Fatal("figures differ under network faults")
	}
	m := h.c.Counters()
	if m.Completions != 3 {
		t.Fatalf("completions = %d, want 3: dropped/duplicated responses must not double-settle", m.Completions)
	}
	if m.Duplicates < 1 {
		t.Fatalf("duplicates = %d, want >= 1 (drop forces an idempotent retry)", m.Duplicates)
	}
	if err := h.workerErr(0); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestFleetSeveredWorkerExitsOffline: a worker whose every call is
// severed gives up with an unreachable error after its MaxOffline
// budget instead of spinning forever.
func TestFleetSeveredWorkerExitsOffline(t *testing.T) {
	p, err := faultinject.Parse("net:sever:*")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator:  "http://127.0.0.1:1", // never reached: sever fires first
		Faults:       p,
		PollInterval: 5 * time.Millisecond,
		MaxOffline:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("severed worker returned %v, want unreachable error", err)
	}
}

// TestCoordinatorRejectsUndistributedAxes: unit specs carry neither
// sampled-profiling periods nor the learned config, and a completed
// series crosses back without either, so a study that asks for them
// is refused up front instead of silently losing those figures.
func TestCoordinatorRejectsUndistributedAxes(t *testing.T) {
	lc := learned.DefaultConfig()
	for _, tc := range []struct {
		name   string
		mutate func(*study.Config)
		want   string
	}{
		{"sample periods", func(c *study.Config) { c.SamplePeriods = []uint64{4} }, "sampled-profiling"},
		{"learned", func(c *study.Config) { c.Learned = &lc }, "learned"},
	} {
		cfg := testStudy(t)
		tc.mutate(&cfg)
		_, err := NewCoordinator(Config{Study: cfg})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: NewCoordinator err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}
