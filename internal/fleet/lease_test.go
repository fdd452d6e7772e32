package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/study"
)

// fakeClock is a manual coordinator clock for deterministic lease
// state-machine tests (TickEvery < 0 disables the background scanner,
// so nothing reads it concurrently).
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time { return f.t }
func (f *fakeClock) advance(d time.Duration) time.Time {
	f.t = f.t.Add(d)
	return f.t
}

func manualCoordinator(t *testing.T, maxAttempts int, backoff time.Duration) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c, err := NewCoordinator(Config{
		Study:        testStudy(t),
		LeaseTTL:     10 * time.Second,
		MaxAttempts:  maxAttempts,
		RetryBackoff: backoff,
		TickEvery:    -1, // manual Tick only
		Now:          clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func unitState(c *Coordinator, bench string) StatusUnit {
	for _, u := range c.StatusSnapshot().Units {
		if u.Bench == bench {
			return u
		}
	}
	return StatusUnit{}
}

// TestLeaseStateMachine walks one unit through the full lease protocol
// under a manual clock: grant exclusivity, heartbeat extension, expiry
// with backoff, reassignment, late completion from the dead lease
// revoking the live one, and duplicate suppression.
func TestLeaseStateMachine(t *testing.T) {
	c, clk := manualCoordinator(t, 5, time.Second)
	c.enqueue("gzip")

	// Grant is exclusive: the second ask waits.
	g1, _ := c.grant("w1", clk.t)
	if g1 == nil || g1.Attempt != 1 || g1.Unit.Bench != "gzip" {
		t.Fatalf("first grant = %+v", g1)
	}
	if g1.TTLMS != 10_000 {
		t.Fatalf("lease TTL = %dms, want 10000", g1.TTLMS)
	}
	if g, _ := c.grant("w2", clk.t); g != nil {
		t.Fatalf("second grant while leased = %+v, want nil", g)
	}

	// A heartbeat 3s in extends the deadline to beat+TTL.
	clk.advance(3 * time.Second)
	if ttl, ok := c.heartbeat(g1.ID, clk.t); !ok || ttl != 10*time.Second {
		t.Fatalf("heartbeat = (%v, %v)", ttl, ok)
	}
	if _, ok := c.heartbeat("L999999", clk.t); ok {
		t.Fatal("heartbeat on an unknown lease succeeded")
	}
	c.Tick(clk.advance(9 * time.Second)) // 12s after grant, 9s after beat: still alive
	if m := c.Counters(); m.Expiries != 0 {
		t.Fatalf("lease expired despite heartbeat extension: %+v", m)
	}
	if m := c.Counters(); m.MaxHeartbeatLag != 3*time.Second {
		t.Fatalf("max heartbeat lag = %v, want 3s", m.MaxHeartbeatLag)
	}

	// Silence past the extended deadline expires the lease; the unit
	// re-queues behind the retry backoff.
	c.Tick(clk.advance(2 * time.Second))
	if m := c.Counters(); m.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", m.Expiries)
	}
	if st := unitState(c, "gzip"); st.State != "pending" || st.Attempts != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
	if _, ok := c.heartbeat(g1.ID, clk.t); ok {
		t.Fatal("heartbeat on an expired lease succeeded")
	}
	g, wait := c.grant("w2", clk.t)
	if g != nil || wait != time.Second {
		t.Fatalf("grant during backoff = (%+v, %v), want (nil, 1s)", g, wait)
	}

	// After the backoff the unit is re-leased: a reassignment.
	g2, _ := c.grant("w2", clk.advance(time.Second))
	if g2 == nil || g2.Attempt != 2 {
		t.Fatalf("re-grant = %+v, want attempt 2", g2)
	}
	if m := c.Counters(); m.Reassignments != 1 {
		t.Fatalf("reassignments = %d, want 1", m.Reassignments)
	}

	// The dead worker's completion arrives anyway (publish raced its
	// expiry): determinism makes it the truth, so it settles — late —
	// and revokes w2's live lease.
	resp, err := c.complete(&CompleteRequest{
		LeaseID: g1.ID, Worker: "w1", Bench: "gzip",
		Series: &study.BenchmarkSeries{Name: "gzip"},
	}, clk.t)
	if err != nil || resp.Status != StatusLate {
		t.Fatalf("late completion = (%+v, %v), want StatusLate", resp, err)
	}
	if st := unitState(c, "gzip"); st.State != "settled" {
		t.Fatalf("after late completion: %+v", st)
	}
	if _, ok := c.heartbeat(g2.ID, clk.t); ok {
		t.Fatal("superseded live lease survived the settle")
	}

	// w2's own completion is now a duplicate; a much later Tick finds
	// nothing to expire or conclude.
	resp, err = c.complete(&CompleteRequest{
		LeaseID: g2.ID, Worker: "w2", Bench: "gzip",
		Series: &study.BenchmarkSeries{Name: "gzip"},
	}, clk.t)
	if err != nil || resp.Status != StatusDuplicate {
		t.Fatalf("duplicate completion = (%+v, %v)", resp, err)
	}
	c.Tick(clk.advance(time.Hour))
	m := c.Counters()
	if m.Expiries != 1 || m.Completions != 1 || m.Late != 1 || m.Duplicates != 1 {
		t.Fatalf("final counters: %+v", m)
	}
	if st := unitState(c, "gzip"); st.State != "settled" {
		t.Fatalf("settled unit regressed: %+v", st)
	}

	// Unknown units are rejected.
	if _, err := c.complete(&CompleteRequest{Bench: "nonesuch"}, clk.t); err == nil {
		t.Fatal("completion for an unknown unit succeeded")
	}
}

// TestLeaseErrorAttemptsAndExhaustion: worker-reported errors conclude
// attempts (with retry), and a unit that loses every lease fails with
// a structured UnitFailure carrying the full attempt history.
func TestLeaseErrorAttemptsAndExhaustion(t *testing.T) {
	c, clk := manualCoordinator(t, 2, 0)
	c.enqueue("swim")

	// Attempt 1 reports a hard error: concluded, retryable.
	g1, _ := c.grant("w1", clk.t)
	resp, err := c.complete(&CompleteRequest{
		LeaseID: g1.ID, Worker: "w1", Bench: "swim", Error: "exec format error",
	}, clk.t)
	if err != nil || resp.Status != StatusRetry {
		t.Fatalf("errored completion = (%+v, %v), want StatusRetry", resp, err)
	}
	if m := c.Counters(); m.AttemptFailures != 1 {
		t.Fatalf("attempt failures = %d, want 1", m.AttemptFailures)
	}

	// Attempt 2 expires: the budget is spent, the unit fails for good
	// with both attempts in its history.
	if g2, _ := c.grant("w2", clk.t); g2 == nil {
		t.Fatal("no re-grant after errored attempt")
	}
	c.Tick(clk.advance(11 * time.Second))
	st := unitState(c, "swim")
	if st.State != "failed" || st.Attempts != 2 {
		t.Fatalf("after exhaustion: %+v", st)
	}
	m := c.Counters()
	if m.UnitsFailed != 1 {
		t.Fatalf("units failed = %d, want 1", m.UnitsFailed)
	}
	c.mu.Lock()
	f := c.units["swim"].failure
	c.mu.Unlock()
	if f == nil || f.Attempts != 2 {
		t.Fatalf("failure = %+v", f)
	}
	for _, needle := range []string{"exec format error", "expired", "attempt 1", "attempt 2"} {
		if !strings.Contains(f.Err, needle) {
			t.Fatalf("failure err %q missing %q", f.Err, needle)
		}
	}

	// A straggler completion for the failed unit is dropped as a
	// duplicate, not resurrected.
	resp, err = c.complete(&CompleteRequest{
		LeaseID: g1.ID, Worker: "w1", Bench: "swim",
		Series: &study.BenchmarkSeries{Name: "swim"},
	}, clk.t)
	if err != nil || resp.Status != StatusDuplicate {
		t.Fatalf("post-failure completion = (%+v, %v)", resp, err)
	}
}

// TestFleetSharedCacheNoDoubleExecution pins the zero-double-execution
// acceptance criterion with resultcache accounting: a 3-worker fleet
// over one shared store executes each unit exactly once (stores match a
// local cold run, zero hits), and a local warm run over the fleet's
// store replays everything without a single miss, byte-identical.
func TestFleetSharedCacheNoDoubleExecution(t *testing.T) {
	openStore := func(name string) *resultcache.Store {
		s, err := resultcache.Open(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Baseline: a local cold run populating a fresh store.
	localStore := openStore("local")
	localCfg := testStudy(t)
	localCfg.Cache = localStore
	local, err := study.Run(localCfg)
	if err != nil {
		t.Fatal(err)
	}
	coldStores := localStore.Counters().Stores
	if coldStores == 0 {
		t.Fatal("local cold run stored nothing")
	}
	// A local warm replay sets the baseline counter shape (some unit
	// lookups miss by design even on a fully warm store).
	localWarm, err := study.Run(localCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet run: three workers, one shared store.
	shared := openStore("shared")
	wcfgs := make([]WorkerConfig, 3)
	for i := range wcfgs {
		wcfgs[i] = WorkerConfig{Workers: 2, Cache: shared}
	}
	h := startFleet(t, Config{Study: testStudy(t), LeaseTTL: 5 * time.Second}, wcfgs)
	res, err := h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got := figJSON(t, res); !bytes.Equal(got, figJSON(t, local)) {
		t.Fatal("fleet figures differ from the cached local run")
	}
	sc := shared.Counters()
	if sc.Stores != coldStores || sc.Hits != 0 {
		t.Fatalf("shared store = %+v, want %d stores and 0 hits (each unit executed exactly once)", sc, coldStores)
	}

	// Warm replay over the fleet's store: all hits, no misses, same bytes.
	warmCfg := testStudy(t)
	warmCfg.Cache = shared
	warm, err := study.Run(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Perf.ResultCacheHits != localWarm.Perf.ResultCacheHits || warm.Perf.ResultCacheMisses != localWarm.Perf.ResultCacheMisses {
		t.Fatalf("warm replay over the fleet store: hits=%d misses=%d, want the local-warm shape hits=%d misses=%d",
			warm.Perf.ResultCacheHits, warm.Perf.ResultCacheMisses,
			localWarm.Perf.ResultCacheHits, localWarm.Perf.ResultCacheMisses)
	}
	if got := figJSON(t, warm); !bytes.Equal(got, figJSON(t, res)) {
		t.Fatal("warm replay of the fleet's cache differs from the fleet run")
	}
}

// TestFleetCoordinatorResume: a coordinator stopped mid-study (its
// checkpoint holding the settled units) restarts, resumes from the
// checkpoint, re-executes nothing already settled, and emits figures
// byte-identical to an uninterrupted run.
func TestFleetCoordinatorResume(t *testing.T) {
	local, err := study.Run(testStudy(t))
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()

	// Phase 1: one worker, stop after the first settled unit.
	cfg1 := Config{Study: testStudy(t), LeaseTTL: 5 * time.Second, StateDir: state}
	cfg1.Study.StopAfter = 1
	h1 := startFleet(t, cfg1, []WorkerConfig{{ID: "w1", Workers: 2}})
	_, err = h1.run(t)
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	settled := h1.c.Counters().Completions
	if settled == 0 {
		t.Fatal("nothing settled before the stop")
	}
	if _, err := os.Stat(filepath.Join(state, "study.ckpt.jsonl")); err != nil {
		t.Fatalf("no checkpoint in the state dir: %v", err)
	}

	// Phase 2: a fresh coordinator over the same state dir resumes.
	cfg2 := Config{Study: testStudy(t), LeaseTTL: 5 * time.Second, StateDir: state}
	cfg2.Study.Resume = true
	h2 := startFleet(t, cfg2, []WorkerConfig{{ID: "w2", Workers: 2}})
	res, err := h2.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got := figJSON(t, res); !bytes.Equal(got, figJSON(t, local)) {
		t.Fatal("resumed fleet figures differ from an uninterrupted run")
	}
	if got := uint64(res.Perf.ResumedSeries); got != settled {
		t.Fatalf("resumed series = %d, want %d (settled units must not re-execute)", got, settled)
	}
	if got := h2.c.Counters().Completions; got != 3-settled {
		t.Fatalf("second run completions = %d, want %d", got, 3-settled)
	}
	// The lease journal accumulated both coordinators' grant records.
	if data, err := os.ReadFile(filepath.Join(state, "lease.journal.jsonl")); err != nil || !bytes.Contains(data, []byte(`"ev":"grant"`)) {
		t.Fatalf("lease journal missing grant records (err=%v)", err)
	}
}

// TestFleetHTTPEndpoints exercises the read-only surface after a run:
// status reports done with settled units, metrics exposes the fleet
// counters in Prometheus text format, and healthz answers.
func TestFleetHTTPEndpoints(t *testing.T) {
	h := startFleet(t, Config{Study: testStudy(t), LeaseTTL: 5 * time.Second}, []WorkerConfig{{Workers: 2}})
	if _, err := h.run(t); err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get(h.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	status := get("/v1/fleet/status")
	for _, needle := range []string{`"done":true`, `"state":"settled"`, `"completions":3`} {
		if !strings.Contains(status, needle) {
			t.Fatalf("status %s missing %q", status, needle)
		}
	}
	metrics := get("/v1/fleet/metrics")
	for _, needle := range []string{
		"fleet_lease_grants_total 3",
		"fleet_completions_total 3",
		"fleet_lease_expiries_total 0",
		`fleet_units{state="settled"} 3`,
		"fleet_workers 1",
	} {
		if !strings.Contains(metrics, needle) {
			t.Fatalf("metrics missing %q:\n%s", needle, metrics)
		}
	}
	if !strings.Contains(get("/healthz"), "ok") {
		t.Fatal("healthz did not answer ok")
	}
}

// TestFleetRequestBodyTooLarge: every coordinator endpoint that reads a
// JSON body answers 413 once the body passes maxRequestBody, before
// touching lease state.
func TestFleetRequestBodyTooLarge(t *testing.T) {
	c, _ := manualCoordinator(t, 1, 0)
	defer c.Close()
	c.enqueue("gzip")
	pad := strings.Repeat("a", maxRequestBody)
	for _, path := range []string{"/v1/fleet/lease", "/v1/fleet/heartbeat", "/v1/fleet/complete"} {
		body := `{"worker":"` + pad + `","lease_id":"` + pad + `"}`
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an oversized body: %d %s", path, w.Code, w.Body)
		}
	}
	if u := unitState(c, "gzip"); u.Attempts != 0 {
		t.Fatalf("oversized requests touched the unit: %+v", u)
	}
}
