package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/spec"
	"repro/internal/study"
)

// WorkerConfig shapes a fleet worker.
type WorkerConfig struct {
	// ID names this worker in leases, journals and status reports.
	// Default "w-<pid>".
	ID string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Workers sizes the local execution pool (default GOMAXPROCS).
	Workers int
	// Policy is the local unit-failure policy. Degrade (the default)
	// absorbs unit failures into the published series — the benchmark
	// settles degraded, exactly as in-process. FailFast turns them
	// into failed attempts the coordinator retries.
	Policy core.FailurePolicy
	// MaxAttempts and RetryBackoff bound local per-unit retry, as in
	// study.Config.
	MaxAttempts  int
	RetryBackoff time.Duration
	// Cache is the shared content-addressed result store. Workers on
	// one host (or a shared filesystem) point at the same directory,
	// which is what makes reassigned units warm.
	Cache *resultcache.Store
	// Trace receives this worker's pipeline events.
	Trace *obs.Recorder
	// Faults arms deterministic fault injection: unit entries
	// (slow/trap/panic/build) apply to local execution — note any
	// armed plan disables result caching, as everywhere — and net
	// entries apply to this worker's protocol calls.
	Faults *faultinject.Plan
	// PollInterval paces lease polling when there is no work.
	// Default 200ms.
	PollInterval time.Duration
	// MaxOffline bounds how long the coordinator may stay unreachable
	// before Run gives up with an error. Crossing a coordinator
	// restart (kill-and-resume) relies on this being generous.
	// Default 2m.
	MaxOffline time.Duration
	// MaxUnits, when positive, exits Run after that many settled
	// completions (a deterministic test hook).
	MaxUnits int
	// ScratchDir, when non-empty, is this worker's state directory:
	// swept for orphaned temps on open, then stamped with a
	// worker.json marker.
	ScratchDir string
}

// WorkerStats counts what a worker did, for logs and tests.
type WorkerStats struct {
	UnitsSettled   uint64 // completions the coordinator accepted (incl. late)
	UnitsAbandoned uint64 // leases dropped after revocation or shutdown
	AttemptErrors  uint64 // completions published as failed attempts
	Heartbeats     uint64 // heartbeats acknowledged
}

// Worker pulls unit leases from a coordinator, executes them on a
// local scheduler through the same options-building path study.Run
// uses, heartbeats while executing, and publishes results. It
// tolerates coordinator unavailability (retry with MaxOffline budget)
// and lease revocation (abandon, poll again).
type Worker struct {
	cfg    WorkerConfig
	client *Client
	timing core.Timing

	unitsSettled   atomic.Uint64
	unitsAbandoned atomic.Uint64
	attemptErrors  atomic.Uint64
	heartbeats     atomic.Uint64
}

// NewWorker validates the configuration and opens the scratch
// directory.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("w-%d", os.Getpid())
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.MaxOffline <= 0 {
		cfg.MaxOffline = 2 * time.Minute
	}
	w := &Worker{cfg: cfg, client: NewClient(cfg.Coordinator, cfg.Faults)}
	if dir := cfg.ScratchDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: scratch dir: %w", err)
		}
		if _, err := atomicio.SweepTemps(dir); err != nil {
			return nil, fmt.Errorf("fleet: scratch sweep: %w", err)
		}
		marker, err := json.Marshal(map[string]any{
			"worker":      cfg.ID,
			"coordinator": cfg.Coordinator,
			"pid":         os.Getpid(),
		})
		if err == nil {
			err = atomicio.WriteFile(filepath.Join(dir, "worker.json"), append(marker, '\n'), 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: scratch marker: %w", err)
		}
	}
	return w, nil
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		UnitsSettled:   w.unitsSettled.Load(),
		UnitsAbandoned: w.unitsAbandoned.Load(),
		AttemptErrors:  w.attemptErrors.Load(),
		Heartbeats:     w.heartbeats.Load(),
	}
}

// Run polls for leases until the coordinator reports the study done
// (clean exit), the context is cancelled (clean exit: shutting down a
// worker is an expected fleet event), or the coordinator stays
// unreachable past MaxOffline.
func (w *Worker) Run(ctx context.Context) error {
	lastContact := time.Now()
	for {
		if ctx.Err() != nil {
			return nil
		}
		var lr LeaseResponse
		err := w.client.Post(ctx, EndpointLease, LeaseRequest{Worker: w.cfg.ID}, &lr)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if off := time.Since(lastContact); off > w.cfg.MaxOffline {
				return fmt.Errorf("fleet: coordinator unreachable for %v: %w", off.Round(time.Second), err)
			}
			if !w.sleep(ctx, w.cfg.PollInterval) {
				return nil
			}
			continue
		}
		lastContact = time.Now()
		if lr.Done {
			return nil
		}
		if lr.Lease == nil {
			wait := time.Duration(lr.WaitMS) * time.Millisecond
			if wait <= 0 || wait > w.cfg.PollInterval {
				wait = w.cfg.PollInterval
			}
			if !w.sleep(ctx, wait) {
				return nil
			}
			continue
		}
		w.execute(ctx, lr.Lease)
		if n := w.cfg.MaxUnits; n > 0 && w.unitsSettled.Load() >= uint64(n) {
			return nil
		}
	}
}

// execute runs one leased unit to completion: local execution on a
// fresh per-unit scheduler (so a revocation cancels only this unit),
// heartbeats on a TTL/3 ticker, and an idempotent completion publish.
func (w *Worker) execute(ctx context.Context, g *LeaseGrant) {
	u := g.Unit
	var out *core.BenchmarkResult
	var execErr error
	var revoked atomic.Bool
	b := spec.ByName(u.Bench)
	if b == nil {
		execErr = fmt.Errorf("unknown benchmark %q", u.Bench)
	} else {
		// Rebuild the exact (Target, Options) pair the in-process
		// study would run, through the same shared helpers.
		scfg := study.Config{
			Scale:        u.Scale,
			Thresholds:   u.PaperT,
			PoolTrigger:  u.PoolTrigger,
			Predictors:   u.Predictors,
			MaxAttempts:  w.cfg.MaxAttempts,
			RetryBackoff: w.cfg.RetryBackoff,
			Faults:       w.cfg.Faults,
			Trace:        w.cfg.Trace,
			Cache:        w.cfg.Cache,
		}
		_, ladder := study.EffectiveLadder(u.PaperT, u.Scale)
		opts := scfg.UnitOptions(ladder, &w.timing)
		sched := core.NewSchedulerPolicy(w.cfg.Workers, w.cfg.Policy)
		hbStop := make(chan struct{})
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			w.heartbeatLoop(ctx, g, sched, &revoked, hbStop)
		}()
		out, execErr = (&core.LocalExecutor{S: sched}).ExecuteUnit(b.Target(u.Scale), opts, ctx.Done())
		if ctx.Err() != nil {
			// Shutdown mid-unit (the in-process analogue of a killed
			// worker): stop the pool so in-flight guest runs and
			// injected delays unblock instead of lingering.
			sched.Stop()
		}
		close(hbStop)
		<-hbDone
	}
	switch {
	case revoked.Load() || ctx.Err() != nil:
		// The coordinator gave the unit away (or we are shutting
		// down): the result is no longer wanted here. If execution
		// finished anyway, publish it — late completions are valid —
		// otherwise abandon.
		if out == nil || execErr != nil {
			w.unitsAbandoned.Add(1)
			return
		}
		w.publish(ctx, g, &CompleteRequest{
			LeaseID: g.ID, Worker: w.cfg.ID, Bench: u.Bench,
			Series: seriesPtr(study.SeriesFromResult(b, out)),
		})
	case execErr != nil:
		if errors.Is(execErr, core.ErrStopped) {
			w.unitsAbandoned.Add(1)
			return
		}
		w.attemptErrors.Add(1)
		w.publish(ctx, g, &CompleteRequest{
			LeaseID: g.ID, Worker: w.cfg.ID, Bench: u.Bench, Error: execErr.Error(),
		})
	default:
		w.publish(ctx, g, &CompleteRequest{
			LeaseID: g.ID, Worker: w.cfg.ID, Bench: u.Bench,
			Series: seriesPtr(study.SeriesFromResult(b, out)),
		})
	}
}

func seriesPtr(s study.BenchmarkSeries) *study.BenchmarkSeries { return &s }

// publish posts a completion with bounded retry: a dropped response
// means the coordinator may already have applied the result, and the
// retry leans on completion idempotency (the repeat is counted as a
// duplicate and dropped).
func (w *Worker) publish(ctx context.Context, g *LeaseGrant, req *CompleteRequest) {
	var resp CompleteResponse
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 && !w.sleep(ctx, 25*time.Millisecond) {
			break
		}
		if err := w.client.Post(ctx, EndpointComplete, req, &resp); err != nil {
			continue
		}
		switch resp.Status {
		case StatusAccepted, StatusLate, StatusDuplicate:
			if req.Error == "" {
				w.unitsSettled.Add(1)
			}
		}
		return
	}
	// The coordinator never acknowledged; its lease expiry owns the
	// unit's fate now.
	w.unitsAbandoned.Add(1)
}

// heartbeatLoop extends the lease on a TTL/3 cadence until the unit
// finishes or the lease is revoked (ErrLeaseGone), which cancels the
// local scheduler so the guest stops promptly. Transport errors are
// tolerated: the lease may still be extended by a later beat, and if
// not, expiry-plus-late-completion keeps the protocol correct.
func (w *Worker) heartbeatLoop(ctx context.Context, g *LeaseGrant, sched *core.Scheduler, revoked *atomic.Bool, stop <-chan struct{}) {
	every := time.Duration(g.TTLMS) * time.Millisecond / 3
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var resp HeartbeatResponse
		err := w.client.Post(ctx, EndpointHeartbeat, HeartbeatRequest{LeaseID: g.ID}, &resp)
		if errors.Is(err, ErrLeaseGone) {
			revoked.Store(true)
			sched.Stop()
			return
		}
		if err == nil {
			w.heartbeats.Add(1)
		}
	}
}

// sleep waits d or until the context is cancelled; it reports whether
// the full wait elapsed.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
