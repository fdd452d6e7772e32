package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/promtext"
	"repro/internal/study"
)

// Config shapes a coordinator.
type Config struct {
	// Study is the study to distribute. Its Executor field is owned by
	// the coordinator; its Checkpoint defaults into StateDir so a
	// restarted coordinator resumes without re-leasing settled units.
	// Study.Faults must be nil — fault plans are worker-local (a unit
	// fault belongs to the process executing the unit).
	Study study.Config
	// LeaseTTL is the deadline budget of one lease; a worker that
	// neither completes nor heartbeats within it loses the unit.
	// Default 10s.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases a unit gets before it is
	// failed with a structured UnitFailure. Default 3.
	MaxAttempts int
	// RetryBackoff delays re-leasing after an expiry or failed
	// attempt, doubling per attempt. Default 0 (immediate).
	RetryBackoff time.Duration
	// StateDir holds the lease journal and the default checkpoint.
	// Opened with an orphaned-temp sweep, like every other state
	// directory in the pipeline. Empty disables both.
	StateDir string
	// Trace receives lease-lifecycle events (obs.UnitLease*).
	Trace *obs.Recorder
	// TickEvery is the lease-expiry scan period. Default LeaseTTL/4
	// (clamped to [10ms, 1s]); negative disables the background
	// scanner so tests drive Tick with a manual clock.
	TickEvery time.Duration
	// Now is the coordinator clock, for deterministic tests.
	// Default time.Now.
	Now func() time.Time
}

// Unit lease states, as reported by /v1/fleet/status.
const (
	unitPending = "pending"
	unitLeased  = "leased"
	unitSettled = "settled"
	unitFailed  = "failed"
)

// unit is one benchmark's lease-protocol state machine:
//
//	pending -> leased -> settled
//	   ^         |   \-> failed   (attempts exhausted)
//	   \---------/                (lease expired / attempt failed)
type unit struct {
	seq        int
	spec       UnitSpec
	state      string
	attempts   int
	history    []string // one line per concluded attempt
	eligibleAt time.Time
	lease      *lease // active lease while leased
	series     *study.BenchmarkSeries
	failure    *core.UnitFailure
	done       chan struct{} // closed on settle/fail
}

// lease is one revocable assignment of a unit to a worker.
type lease struct {
	id       string
	worker   string
	unit     *unit
	deadline time.Time
	lastBeat time.Time
	beats    int
	granted  time.Time
}

// counters are the coordinator's protocol metrics (Prometheus names in
// handleMetrics).
type counters struct {
	grants        atomic.Uint64
	expiries      atomic.Uint64
	reassignments atomic.Uint64
	heartbeats    atomic.Uint64
	maxBeatLagNS  atomic.Int64
	completions   atomic.Uint64
	late          atomic.Uint64
	duplicates    atomic.Uint64
	attemptFails  atomic.Uint64
	unitsFailed   atomic.Uint64
}

// Coordinator shards a study's benchmark units across fleet workers as
// revocable leases. It implements core.UnitExecutor; Run wires it into
// study.Run, so checkpointing, resume, figures and failure policy are
// exactly the single-process study's.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	doneCh  chan struct{} // closed when the study finished cleanly
	stopped atomic.Bool   // study cancelled: stop granting

	mu      sync.Mutex
	seq     int
	leaseID int
	units   map[string]*unit
	leases  map[string]*lease // active leases only
	workers map[string]time.Time

	jmu     sync.Mutex
	journal *os.File

	m counters
}

// NewCoordinator validates the configuration and opens the state
// directory (sweeping orphaned temps, like resultcache and checkpoint
// opens do).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Study.Faults != nil {
		return nil, fmt.Errorf("fleet: study fault plans are worker-local; arm the plan on workers instead")
	}
	if cfg.Study.Executor != nil {
		return nil, fmt.Errorf("fleet: the coordinator owns the study executor")
	}
	// Unit specs carry neither axis and completed series would come back
	// without them, so the figures would silently go missing.
	if len(cfg.Study.SamplePeriods) > 0 {
		return nil, fmt.Errorf("fleet: sampled-profiling periods are not distributed; run the study in one process")
	}
	if cfg.Study.Learned != nil {
		return nil, fmt.Errorf("fleet: the learned predictor is not distributed; run the study in one process")
	}
	// Resolve defaults now: unit specs serialize ladder, scale and
	// predictors from this config, and they must be the values Run
	// will use, not zero placeholders.
	cfg.Study.Normalize()
	if cfg.StateDir != "" && cfg.Study.Checkpoint == "" {
		cfg.Study.Checkpoint = filepath.Join(cfg.StateDir, "study.ckpt.jsonl")
	}
	if err := cfg.Study.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("fleet: invalid retry backoff %v", cfg.RetryBackoff)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.TickEvery == 0 {
		cfg.TickEvery = cfg.LeaseTTL / 4
		if cfg.TickEvery < 10*time.Millisecond {
			cfg.TickEvery = 10 * time.Millisecond
		}
		if cfg.TickEvery > time.Second {
			cfg.TickEvery = time.Second
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		doneCh:  make(chan struct{}),
		units:   make(map[string]*unit),
		leases:  make(map[string]*lease),
		workers: make(map[string]time.Time),
	}
	if dir := cfg.StateDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: state dir: %w", err)
		}
		if _, err := atomicio.SweepTemps(dir); err != nil {
			return nil, fmt.Errorf("fleet: state dir sweep: %w", err)
		}
		j, err := os.OpenFile(filepath.Join(dir, "lease.journal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("fleet: lease journal: %w", err)
		}
		c.journal = j
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/fleet/lease", c.handleLease)
	c.mux.HandleFunc("POST /v1/fleet/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/fleet/complete", c.handleComplete)
	c.mux.HandleFunc("GET /v1/fleet/status", c.handleStatus)
	c.mux.HandleFunc("GET /v1/fleet/metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return c, nil
}

// Handler returns the coordinator's HTTP surface (/v1/fleet/*).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Counters is a point-in-time snapshot of the protocol metrics, for
// tests and reports.
type Counters struct {
	Grants, Expiries, Reassignments uint64
	Heartbeats                      uint64
	Completions, Late, Duplicates   uint64
	AttemptFailures, UnitsFailed    uint64
	MaxHeartbeatLag                 time.Duration
}

// Counters snapshots the protocol metrics.
func (c *Coordinator) Counters() Counters {
	return Counters{
		Grants:          c.m.grants.Load(),
		Expiries:        c.m.expiries.Load(),
		Reassignments:   c.m.reassignments.Load(),
		Heartbeats:      c.m.heartbeats.Load(),
		Completions:     c.m.completions.Load(),
		Late:            c.m.late.Load(),
		Duplicates:      c.m.duplicates.Load(),
		AttemptFailures: c.m.attemptFails.Load(),
		UnitsFailed:     c.m.unitsFailed.Load(),
		MaxHeartbeatLag: time.Duration(c.m.maxBeatLagNS.Load()),
	}
}

// Run executes the study with this coordinator as its unit executor,
// blocking until it completes, fails, or stops. The expiry scanner
// runs for the duration; the done signal (workers' exit cue) is only
// raised on clean completion — a stopped coordinator leaves workers
// polling for its successor.
func (c *Coordinator) Run() (*study.Results, error) {
	cfg := c.cfg.Study
	cfg.Executor = c
	stopTick := make(chan struct{})
	defer close(stopTick)
	if c.cfg.TickEvery > 0 {
		go func() {
			t := time.NewTicker(c.cfg.TickEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					c.Tick(c.cfg.Now())
				case <-stopTick:
					return
				}
			}
		}()
	}
	res, err := study.Run(cfg)
	if err == nil {
		close(c.doneCh)
	} else {
		c.stopped.Store(true)
	}
	return res, err
}

// Close releases the lease journal.
func (c *Coordinator) Close() error {
	if c.journal == nil {
		return nil
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	err := c.journal.Close()
	c.journal = nil
	return err
}

// ExecuteUnit implements core.UnitExecutor: the unit is enqueued for
// leasing and the call blocks until a completion settles it, the
// attempt budget fails it, or the study cancels.
func (c *Coordinator) ExecuteUnit(t core.Target, _ core.Options, cancel <-chan struct{}) (*core.BenchmarkResult, error) {
	u := c.enqueue(t.Name)
	select {
	case <-u.done:
	case <-cancel:
		// The study is cancelling (stop or fail-fast): grant nothing
		// more; in-flight workers discover the revocation through
		// heartbeats against a gone coordinator.
		c.stopped.Store(true)
		return nil, core.ErrStopped
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if u.failure != nil {
		if c.cfg.Study.Policy == core.Degrade {
			return &core.BenchmarkResult{Name: u.spec.Bench, Failures: []core.UnitFailure{*u.failure}}, nil
		}
		return nil, fmt.Errorf("fleet: %s: %s", u.spec.Bench, u.failure.Err)
	}
	return resultFromSeries(u.series), nil
}

// resultFromSeries lifts a wire series back into the unit result shape
// study.Run records. SeriesFromResult∘resultFromSeries is the
// identity, so a series that crossed the wire lands byte-identical.
func resultFromSeries(s *study.BenchmarkSeries) *core.BenchmarkResult {
	return &core.BenchmarkResult{
		Name:         s.Name,
		Train:        s.Train,
		TrainRegions: s.TrainRegions,
		TrainOps:     s.TrainOps,
		AVEPCycles:   s.AVEPCycles,
		Results:      s.PerT,
		Failures:     s.Failures,
		Predictors:   s.Predictors,
	}
}

// enqueue registers one pending unit for the benchmark.
func (c *Coordinator) enqueue(bench string) *unit {
	scfg := &c.cfg.Study
	c.mu.Lock()
	defer c.mu.Unlock()
	u := &unit{
		seq: c.seq,
		spec: UnitSpec{
			Bench:       bench,
			Scale:       scfg.Scale,
			PaperT:      scfg.Thresholds,
			PoolTrigger: scfg.PoolTrigger,
			Predictors:  scfg.Predictors,
		},
		state:      unitPending,
		eligibleAt: c.cfg.Now(),
		done:       make(chan struct{}),
	}
	c.seq++
	c.units[bench] = u
	return u
}

// Tick scans for expired leases: each is revoked, its attempt recorded
// in the unit's history, and the unit re-queued with backoff — or
// failed with the full history once its attempt budget is exhausted.
// Exported so tests drive expiry with a manual clock.
func (c *Coordinator) Tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		u := l.unit
		if u.state != unitLeased || u.lease != l {
			// A superseded lease of an already-settled or re-leased unit:
			// dropping it is the whole cleanup, there is no attempt to
			// conclude.
			continue
		}
		u.lease = nil
		u.history = append(u.history, fmt.Sprintf("attempt %d: lease %s to %s expired after %v (%d heartbeats)",
			u.attempts, l.id, l.worker, now.Sub(l.granted).Round(time.Millisecond), l.beats))
		c.m.expiries.Add(1)
		c.event(obs.UnitLeaseExpire, u, l.granted, now.Sub(l.granted), l.worker)
		c.log("expire", u, l.id, l.worker, "")
		c.concludeAttemptLocked(u, now)
	}
}

// concludeAttemptLocked re-queues a unit after a lost attempt, or
// fails it once the budget is spent. Caller holds c.mu.
func (c *Coordinator) concludeAttemptLocked(u *unit, now time.Time) {
	if u.attempts >= c.cfg.MaxAttempts {
		u.state = unitFailed
		u.failure = &core.UnitFailure{
			Bench:    u.spec.Bench,
			Unit:     obs.UnitLeaseGrant,
			Attempts: u.attempts,
			Err: fmt.Sprintf("fleet: unit lost on every lease (%d attempts): %s",
				u.attempts, strings.Join(u.history, "; ")),
		}
		c.m.unitsFailed.Add(1)
		c.event(obs.UnitFleetFail, u, now, 0, u.failure.Err)
		c.log("fail", u, "", "", u.failure.Err)
		close(u.done)
		return
	}
	u.state = unitPending
	if b := c.cfg.RetryBackoff; b > 0 {
		u.eligibleAt = now.Add(b << (u.attempts - 1))
	} else {
		u.eligibleAt = now
	}
}

// grant leases the oldest eligible pending unit to the worker. With no
// eligible unit it returns a wait hint: the delay until the next
// backoff expires, or the poll default.
func (c *Coordinator) grant(workerID string, now time.Time) (*LeaseGrant, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[workerID] = now
	var pick *unit
	wait := c.cfg.LeaseTTL / 4
	for _, u := range c.units {
		if u.state != unitPending {
			continue
		}
		if u.eligibleAt.After(now) {
			if d := u.eligibleAt.Sub(now); d < wait {
				wait = d
			}
			continue
		}
		if pick == nil || u.seq < pick.seq {
			pick = u
		}
	}
	if pick == nil {
		return nil, wait
	}
	c.leaseID++
	l := &lease{
		id:       fmt.Sprintf("L%06d", c.leaseID),
		worker:   workerID,
		unit:     pick,
		deadline: now.Add(c.cfg.LeaseTTL),
		lastBeat: now,
		granted:  now,
	}
	pick.state = unitLeased
	pick.attempts++
	pick.lease = l
	c.leases[l.id] = l
	c.m.grants.Add(1)
	if pick.attempts > 1 {
		c.m.reassignments.Add(1)
	}
	c.event(obs.UnitLeaseGrant, pick, now, 0, l.worker)
	c.log("grant", pick, l.id, l.worker, "")
	return &LeaseGrant{
		ID:      l.id,
		Unit:    pick.spec,
		TTLMS:   c.cfg.LeaseTTL.Milliseconds(),
		Attempt: pick.attempts,
	}, 0
}

// complete applies one published result. See the package comment for
// the idempotency argument: first valid completion wins, late ones are
// welcome, repeats are counted and dropped.
func (c *Coordinator) complete(req *CompleteRequest, now time.Time) (*CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	u := c.units[req.Bench]
	if l := c.leases[req.LeaseID]; l != nil && u == nil {
		u = l.unit
	}
	if u == nil {
		return nil, fmt.Errorf("unknown unit %q", req.Bench)
	}
	if u.state == unitSettled || u.state == unitFailed {
		c.m.duplicates.Add(1)
		c.event(obs.UnitLeaseReject, u, now, 0, req.Worker)
		c.log("duplicate", u, req.LeaseID, req.Worker, "")
		return &CompleteResponse{Status: StatusDuplicate}, nil
	}
	// The completing lease may have expired (or even been superseded
	// by a reassignment): the result is still the deterministic truth
	// for this unit, so it settles — late — rather than being thrown
	// away and re-executed.
	l := c.leases[req.LeaseID]
	late := l == nil || l.unit != u
	if l != nil && l.unit == u {
		delete(c.leases, req.LeaseID)
		u.lease = nil
	}
	if req.Error != "" || req.Series == nil || req.Series.Name != req.Bench {
		detail := req.Error
		if detail == "" {
			detail = "malformed completion"
		}
		u.history = append(u.history, fmt.Sprintf("attempt %d: %s reported: %s", u.attempts, req.Worker, detail))
		c.m.attemptFails.Add(1)
		if late {
			// An expired attempt already concluded via Tick; a failure
			// report from it changes nothing.
			return &CompleteResponse{Status: StatusRetry}, nil
		}
		c.concludeAttemptLocked(u, now)
		if u.state == unitFailed {
			return &CompleteResponse{Status: StatusFailed}, nil
		}
		return &CompleteResponse{Status: StatusRetry}, nil
	}
	u.series = req.Series
	u.state = unitSettled
	if u.lease != nil {
		// A late completion can land while a reassigned lease is still
		// active; the settle revokes it (its worker's heartbeats will see
		// 410 and stop).
		delete(c.leases, u.lease.id)
		u.lease = nil
	}
	c.m.completions.Add(1)
	status := StatusAccepted
	if late {
		c.m.late.Add(1)
		status = StatusLate
	}
	c.event(obs.UnitLeaseComplete, u, now, 0, req.Worker)
	c.log("settle", u, req.LeaseID, req.Worker, "")
	close(u.done)
	return &CompleteResponse{Status: status}, nil
}

// heartbeat extends an active lease; a revoked lease answers
// ErrLeaseGone (HTTP 410) so the worker abandons the unit.
func (c *Coordinator) heartbeat(leaseID string, now time.Time) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return 0, false
	}
	if lag := now.Sub(l.lastBeat); lag > 0 {
		for {
			cur := c.m.maxBeatLagNS.Load()
			if int64(lag) <= cur || c.m.maxBeatLagNS.CompareAndSwap(cur, int64(lag)) {
				break
			}
		}
	}
	l.lastBeat = now
	l.beats++
	l.deadline = now.Add(c.cfg.LeaseTTL)
	c.workers[l.worker] = now
	c.m.heartbeats.Add(1)
	return c.cfg.LeaseTTL, true
}

// event emits a lease-lifecycle span to the flight recorder. detail
// lands in the Err field — the only free-form slot in the schema — for
// grants/completions it names the remote worker.
func (c *Coordinator) event(kind string, u *unit, start time.Time, dur time.Duration, detail string) {
	if c.cfg.Trace == nil {
		return
	}
	var err error
	if detail != "" {
		err = fmt.Errorf("%s", detail)
	}
	c.cfg.Trace.Record(u.spec.Bench, kind, 0, 0, start, dur, 0, err)
}

// log appends one JSONL record to the lease journal. The journal is
// advisory observability (the checkpoint is the recovery source), so
// write errors are deliberately dropped.
func (c *Coordinator) log(ev string, u *unit, leaseID, worker, detail string) {
	if c.journal == nil {
		return
	}
	rec := struct {
		TS      int64  `json:"ts_ms"`
		Ev      string `json:"ev"`
		Bench   string `json:"bench"`
		Lease   string `json:"lease,omitempty"`
		Worker  string `json:"worker,omitempty"`
		Attempt int    `json:"attempt,omitempty"`
		Detail  string `json:"detail,omitempty"`
	}{c.cfg.Now().UnixMilli(), ev, u.spec.Bench, leaseID, worker, u.attempts, detail}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	c.jmu.Lock()
	if c.journal != nil {
		c.journal.Write(append(data, '\n'))
	}
	c.jmu.Unlock()
}

// --- HTTP handlers ---

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "missing worker id")
		return
	}
	select {
	case <-c.doneCh:
		writeJSON(w, LeaseResponse{Done: true})
		return
	default:
	}
	if c.stopped.Load() {
		// Cancelled, not done: workers keep polling for a restarted
		// coordinator rather than exiting.
		writeJSON(w, LeaseResponse{WaitMS: c.cfg.LeaseTTL.Milliseconds() / 4})
		return
	}
	g, wait := c.grant(req.Worker, c.cfg.Now())
	if g == nil {
		writeJSON(w, LeaseResponse{WaitMS: wait.Milliseconds()})
		return
	}
	writeJSON(w, LeaseResponse{Lease: g})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	ttl, ok := c.heartbeat(req.LeaseID, c.cfg.Now())
	if !ok {
		httpError(w, http.StatusGone, "lease gone")
		return
	}
	writeJSON(w, HeartbeatResponse{TTLMS: ttl.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	resp, err := c.complete(&req, c.cfg.Now())
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, resp)
}

// StatusUnit is one unit's row in the fleet status report.
type StatusUnit struct {
	Bench    string   `json:"bench"`
	State    string   `json:"state"`
	Attempts int      `json:"attempts"`
	Worker   string   `json:"worker,omitempty"`
	Lease    string   `json:"lease,omitempty"`
	History  []string `json:"history,omitempty"`
}

// Status is the /v1/fleet/status document.
type Status struct {
	Done     bool              `json:"done"`
	Units    []StatusUnit      `json:"units"`
	Workers  map[string]string `json:"workers,omitempty"` // id -> last-seen timestamp
	Counters map[string]uint64 `json:"counters"`
}

// StatusSnapshot builds the status document (also used by tests).
func (c *Coordinator) StatusSnapshot() Status {
	c.mu.Lock()
	units := make([]StatusUnit, 0, len(c.units))
	for _, u := range c.units {
		row := StatusUnit{
			Bench:    u.spec.Bench,
			State:    u.state,
			Attempts: u.attempts,
			History:  append([]string(nil), u.history...),
		}
		if u.lease != nil {
			row.Worker = u.lease.worker
			row.Lease = u.lease.id
		}
		units = append(units, row)
	}
	workers := make(map[string]string, len(c.workers))
	for id, seen := range c.workers {
		workers[id] = seen.UTC().Format(time.RFC3339Nano)
	}
	c.mu.Unlock()
	sort.Slice(units, func(i, j int) bool { return units[i].Bench < units[j].Bench })
	done := false
	select {
	case <-c.doneCh:
		done = true
	default:
	}
	m := c.Counters()
	return Status{
		Done:    done,
		Units:   units,
		Workers: workers,
		Counters: map[string]uint64{
			"grants":           m.Grants,
			"expiries":         m.Expiries,
			"reassignments":    m.Reassignments,
			"heartbeats":       m.Heartbeats,
			"completions":      m.Completions,
			"late_completions": m.Late,
			"duplicates":       m.Duplicates,
			"attempt_failures": m.AttemptFailures,
			"units_failed":     m.UnitsFailed,
		},
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.StatusSnapshot())
}

// handleMetrics renders the fleet counters in the Prometheus text
// exposition format, mirroring internal/serve's metric idiom.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b promtext.Writer
	m := c.Counters()
	b.Counter("fleet_lease_grants_total", "unit leases granted to workers", m.Grants)
	b.Counter("fleet_lease_expiries_total", "leases revoked past their deadline", m.Expiries)
	b.Counter("fleet_lease_reassignments_total", "grants of units that already lost at least one lease", m.Reassignments)
	b.Counter("fleet_heartbeats_total", "lease heartbeats accepted", m.Heartbeats)
	b.Gauge("fleet_heartbeat_lag_max_seconds", "largest observed gap between heartbeats of a live lease", fmt.Sprintf("%.3f", m.MaxHeartbeatLag.Seconds()))
	b.Counter("fleet_completions_total", "unit completions that settled their unit", m.Completions)
	b.Counter("fleet_late_completions_total", "settling completions that arrived after their lease expired", m.Late)
	b.Counter("fleet_duplicate_completions_total", "completions dropped because the unit was already settled", m.Duplicates)
	b.Counter("fleet_attempt_failures_total", "worker-reported failed attempts", m.AttemptFailures)
	b.Counter("fleet_units_failed_total", "units failed after exhausting their lease attempts", m.UnitsFailed)

	c.mu.Lock()
	states := map[string]int{}
	for _, u := range c.units {
		states[u.state]++
	}
	nworkers := len(c.workers)
	c.mu.Unlock()
	b.GaugeByLabel("fleet_units", "units by lease state", "state", states)
	b.Gauge("fleet_workers", "distinct workers seen by this coordinator", nworkers)

	b.Serve(w)
}

// --- small HTTP helpers ---

// maxRequestBody bounds every JSON request body. The largest
// legitimate request, a completion carrying one benchmark's series with
// every study axis on, is tens of KB.
const maxRequestBody = 1 << 20

// decode decodes a JSON request body of at most maxRequestBody bytes.
// On failure it answers 413 (body too large) or 400 and returns false.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
