// Package fleet distributes a study across worker processes, designed
// failure-first: workers are expected to crash, hang and partition,
// and the figures must come out byte-identical anyway.
//
// The coordinator is a core.UnitExecutor: study.Run hands it one unit
// per benchmark, and instead of scheduling locally it offers the unit
// as a revocable lease over HTTP/JSON. Workers pull leases
// (POST /v1/fleet/lease), extend them with heartbeats
// (POST /v1/fleet/heartbeat) while executing, and publish the finished
// series (POST /v1/fleet/complete). A lease that outlives its deadline
// is revoked and the unit reassigned with bounded attempts and
// backoff; a unit that exhausts its attempts surfaces as a structured
// core.UnitFailure carrying the attempt history, which under the
// Degrade policy isolates the benchmark exactly like a local unit
// failure.
//
// Correctness under races leans on one invariant: unit execution is
// deterministic, so any two completions of the same unit carry
// identical bytes. The first valid completion settles a unit — even
// one arriving after its lease expired, since the work is no less
// valid for being late — and every later completion is counted and
// dropped. Workers share the content-addressed resultcache as the
// artifact store, so a reassigned unit replays settled sub-results
// from cache instead of re-executing guest blocks, and a restarted
// coordinator resumes from the study checkpoint without re-leasing
// settled benchmarks.
//
// Every protocol call consults the deterministic network fault plan
// (internal/faultinject net: entries) on the worker side, so the
// failure matrix — drop, delay, duplicate, sever — is exercised by
// reproducible tests rather than reasoned about.
package fleet

import (
	"errors"

	"repro/internal/study"
)

// Fleet protocol endpoint names: the HTTP path tails under /v1/fleet/,
// and the endpoint keys of faultinject net: entries.
const (
	EndpointLease     = "lease"
	EndpointHeartbeat = "heartbeat"
	EndpointComplete  = "complete"
)

// ErrLeaseGone is returned by a heartbeat whose lease the coordinator
// has revoked (expired and reassigned, or settled by someone else).
// The worker abandons the unit: its result is no longer wanted.
var ErrLeaseGone = errors.New("fleet: lease gone")

// UnitSpec names one distributable unit of work — a whole benchmark's
// sweep — with everything a worker needs to rebuild the exact
// (Target, Options) pair the in-process study would run. Thresholds
// travel in paper units; the worker derives the effective ladder with
// study.EffectiveLadder, the same helper study.Run uses.
type UnitSpec struct {
	Bench       string    `json:"bench"`
	Scale       float64   `json:"scale"`
	PaperT      []float64 `json:"paper_t"`
	PoolTrigger int       `json:"pool_trigger,omitempty"`
	Predictors  []string  `json:"predictors,omitempty"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries a grant, a wait hint, or the study-done
// signal (workers exit cleanly on Done).
type LeaseResponse struct {
	Done   bool        `json:"done,omitempty"`
	Lease  *LeaseGrant `json:"lease,omitempty"`
	WaitMS int64       `json:"wait_ms,omitempty"`
}

// LeaseGrant is one revocable assignment: the unit, the lease identity
// completions and heartbeats refer to, and the deadline budget.
type LeaseGrant struct {
	ID      string   `json:"id"`
	Unit    UnitSpec `json:"unit"`
	TTLMS   int64    `json:"ttl_ms"`
	Attempt int      `json:"attempt"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse confirms the extension.
type HeartbeatResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// CompleteRequest publishes a unit result: a finished series, or an
// execution error (a failed attempt, retried under the unit's
// attempt budget).
type CompleteRequest struct {
	LeaseID string                 `json:"lease_id"`
	Worker  string                 `json:"worker"`
	Bench   string                 `json:"bench"`
	Series  *study.BenchmarkSeries `json:"series,omitempty"`
	Error   string                 `json:"error,omitempty"`
}

// Completion statuses, in CompleteResponse.Status.
const (
	StatusAccepted  = "accepted"  // first valid completion: the unit is settled
	StatusLate      = "late"      // valid completion from an expired lease: settled anyway
	StatusDuplicate = "duplicate" // the unit was already settled; dropped
	StatusRetry     = "retry"     // failed attempt recorded; the unit will be re-leased
	StatusFailed    = "failed"    // failed attempt exhausted the unit's budget
)

// CompleteResponse reports what the coordinator did with the result.
type CompleteResponse struct {
	Status string `json:"status"`
}
