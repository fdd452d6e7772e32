package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/promtext"
	"repro/internal/study"
)

// perfTotals accumulates study.Perf aggregates over every job this
// process finished; /v1/metrics exposes them as monotonic counters.
type perfTotals struct {
	mu             sync.Mutex
	jobs           uint64
	wallSeconds    float64
	blocksExecuted uint64
	unitFailures   uint64
	unitRetries    uint64
	resumedSeries  uint64
	// Hot-loop engine counters (see dbt.RunStats): the fast/generic
	// dispatch split, translation-cache probes, and the wall-clock the
	// jobs spent inside run units — the denominator of the exported
	// blocks-per-second gauge.
	fastDispatches    uint64
	genericDispatches uint64
	cacheLookups      uint64
	runSeconds        float64
	// Sampled-profiling accounting: sampled ladder units executed and
	// their actual (sampled, unscaled) counter updates across finished
	// jobs. Zero — and absent from the exposition — unless some job ran
	// with sample_periods.
	sampledUnits        uint64
	sampledProfilingOps uint64
}

// recordJobPerf folds one finished job's Perf into the totals.
func (s *Server) recordJobPerf(p study.Perf) {
	t := &s.perf
	t.mu.Lock()
	t.jobs++
	t.wallSeconds += p.WallSeconds
	t.blocksExecuted += p.BlocksExecuted
	t.unitFailures += uint64(p.UnitFailures)
	t.unitRetries += uint64(p.UnitRetries)
	t.resumedSeries += uint64(p.ResumedSeries)
	t.fastDispatches += p.FastDispatches
	t.genericDispatches += p.GenericDispatches
	t.cacheLookups += p.CacheLookups
	t.runSeconds += p.RefRunSeconds + p.TrainSeconds
	t.sampledUnits += uint64(p.SampledUnits)
	t.sampledProfilingOps += p.SampledProfilingOps
	t.mu.Unlock()
}

// handleMetrics renders the Prometheus text exposition format (0.0.4):
// the server's own admission/coalescing counters, the aggregated
// study.Perf of finished jobs, result-cache and flight-recorder
// accounting, and job-state gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b promtext.Writer

	ready := 1
	if s.draining.Load() || s.sched.Stopped() {
		ready = 0
	}
	b.Gauge("inipd_ready", "1 while the daemon admits new work", ready)
	b.Gauge("inipd_uptime_seconds", "seconds since the daemon started", fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
	b.Gauge("inipd_scheduler_workers", "size of the shared comparison worker pool", s.sched.Workers())

	b.Counter("inipd_compare_requests_total", "POST /v1/compare requests received", s.m.compareRequests.Load())
	b.Counter("inipd_compare_ok_total", "compare requests answered 200", s.m.compareOK.Load())
	b.Counter("inipd_compare_overload_total", "compare requests rejected 429 at admission", s.m.compareOverload.Load())
	b.Counter("inipd_compare_deadline_total", "compare requests expired 504", s.m.compareDeadline.Load())
	b.Counter("inipd_compare_coalesced_total", "compare requests served from another caller's in-flight work", s.m.compareCoalesced.Load())
	b.Counter("inipd_compare_warm_total", "compare responses served with zero guest blocks executed", s.m.compareWarm.Load())
	b.Counter("inipd_compare_errors_total", "compare requests answered 5xx (excluding deadlines)", s.m.compareErrors.Load())
	b.Counter("inipd_compare_guest_blocks_total", "guest blocks executed by compare requests", s.m.guestBlocks.Load())
	b.Counter("inipd_study_requests_total", "POST /v1/study requests received", s.m.studyRequests.Load())
	b.Counter("inipd_job_records_dropped_total", "corrupt jobs.json tails salvaged at startup (leading records kept)", s.jobs.recordsDropped)

	s.perf.mu.Lock()
	jobs, wall, blocks := s.perf.jobs, s.perf.wallSeconds, s.perf.blocksExecuted
	fails, retries, resumed := s.perf.unitFailures, s.perf.unitRetries, s.perf.resumedSeries
	fast, generic, lookups := s.perf.fastDispatches, s.perf.genericDispatches, s.perf.cacheLookups
	runSecs := s.perf.runSeconds
	sampledUnits, sampledStudyOps := s.perf.sampledUnits, s.perf.sampledProfilingOps
	s.perf.mu.Unlock()
	b.Counter("inipd_study_jobs_finished_total", "study jobs completed by this process", jobs)
	b.Counter("inipd_study_wall_seconds_total", "summed wall-clock of finished study jobs", fmt.Sprintf("%.3f", wall))
	b.Counter("inipd_study_guest_blocks_total", "guest blocks executed by finished study jobs", blocks)
	b.Counter("inipd_study_unit_failures_total", "absorbed unit failures across finished jobs", fails)
	b.Counter("inipd_study_unit_retries_total", "unit retry attempts across finished jobs", retries)
	b.Counter("inipd_study_resumed_series_total", "benchmark series restored from checkpoints instead of re-executed", resumed)
	b.Counter("inipd_study_fast_dispatches_total", "blocks executed through the pre-lowered arena fast path", fast)
	b.Counter("inipd_study_generic_dispatches_total", "blocks executed through the generic interp dispatch", generic)
	b.Counter("inipd_study_cache_lookups_total", "translation-cache probes (successor threading keeps this below the block count)", lookups)
	bps := 0.0
	if runSecs > 0 {
		bps = float64(blocks) / runSecs
	}
	b.Gauge("inipd_study_blocks_per_second", "hot-loop throughput: guest blocks over run-unit wall-clock of finished jobs", fmt.Sprintf("%.1f", bps))

	s.predMu.Lock()
	predNames := make([]string, 0, len(s.predTotals))
	for name := range s.predTotals {
		predNames = append(predNames, name)
	}
	sort.Strings(predNames)
	type predRow struct {
		name                  string
		branches, mispredicts uint64
	}
	predRows := make([]predRow, len(predNames))
	for i, name := range predNames {
		t := s.predTotals[name]
		predRows[i] = predRow{name, t.branches, t.mispredicts}
	}
	s.predMu.Unlock()
	if len(predRows) > 0 {
		b.Header("inipd_predictor_branches_total", "counter", "branches observed per dynamic predictor across compare requests")
		for _, row := range predRows {
			b.Sample("inipd_predictor_branches_total", "predictor", row.name, row.branches)
		}
		b.Header("inipd_predictor_mispredicts_total", "counter", "mispredictions per dynamic predictor across compare requests")
		for _, row := range predRows {
			b.Sample("inipd_predictor_mispredicts_total", "predictor", row.name, row.mispredicts)
		}
		// Guarded like blocks-per-second: an empty branch stream (a
		// degenerate benchmark, never a warm hit — tallies replay fully
		// populated) exports 0, not NaN.
		b.Header("inipd_predictor_mispredict_rate", "gauge", "mispredict rate per dynamic predictor across compare requests")
		for _, row := range predRows {
			rate := 0.0
			if row.branches > 0 {
				rate = float64(row.mispredicts) / float64(row.branches)
			}
			b.Sample("inipd_predictor_mispredict_rate", "predictor", row.name, fmt.Sprintf("%.6f", rate))
		}
	}

	// Sampled-profiling accounting, emitted only once some sampled work
	// ran — a sampling-less process keeps the legacy exposition
	// byte-identical.
	if sc := s.m.sampledCompares.Load(); sc > 0 {
		b.Counter("inipd_compare_sampled_total", "compare requests that ran a sampled-profiling rerun", sc)
		sOps, fOps := s.m.sampledOps.Load(), s.m.sampledFullOps.Load()
		b.Counter("inipd_sampled_profiling_ops_total", "counter updates performed by sampled compare reruns", sOps)
		b.Counter("inipd_sampled_full_profiling_ops_total", "counter updates performed by the matching full-instrumentation runs", fOps)
		// Guarded like blocks-per-second: a full ladder with zero
		// profiling operations exports 0, not NaN.
		ratio := 0.0
		if fOps > 0 {
			ratio = float64(sOps) / float64(fOps)
		}
		b.Gauge("inipd_sampled_cost_ratio", "aggregate sampled over full-instrumentation counter-update ratio of compare reruns", fmt.Sprintf("%.6f", ratio))
	}
	// Learned-model accounting, same emit-only-when-used contract.
	if lc := s.m.learnedCompares.Load(); lc > 0 {
		b.Counter("inipd_learned_compares_total", "compare requests that scored the held-out learned static model", lc)
		branches := s.m.learnedBranches.Load()
		mis := s.m.learnedMispredicts.Load()
		takenMis := s.m.learnedTakenMispredicts.Load()
		b.Counter("inipd_learned_branches_total", "held-out branches scored by the learned model across compare requests", branches)
		b.Counter("inipd_learned_mispredicts_total", "held-out learned-model mispredictions across compare requests", mis)
		b.Counter("inipd_learned_taken_mispredicts_total", "always-taken baseline mispredictions on the same held-out streams", takenMis)
		// Guarded like blocks-per-second: an empty stream exports 0, not NaN.
		rate := 0.0
		if branches > 0 {
			rate = float64(mis) / float64(branches)
		}
		b.Gauge("inipd_learned_mispredict_rate", "aggregate held-out learned-model mispredict rate", fmt.Sprintf("%.6f", rate))
	}
	if sampledUnits > 0 {
		b.Counter("inipd_study_sampled_units_total", "sampled-profiling ladder units executed by finished study jobs", sampledUnits)
		b.Counter("inipd_study_sampled_profiling_ops_total", "counter updates performed by sampled study units (actual sampled events, not scaled)", sampledStudyOps)
	}

	states := map[string]int{}
	for _, rec := range s.jobs.list() {
		states[string(rec.State)]++
	}
	b.GaugeByLabel("inipd_jobs", "current jobs by state", "state", states)

	if s.cfg.Cache != nil {
		c := s.cfg.Cache.Counters()
		b.Counter("inipd_result_cache_hits_total", "validated result-cache hits", c.Hits)
		b.Counter("inipd_result_cache_misses_total", "result-cache misses", c.Misses)
		b.Counter("inipd_result_cache_stores_total", "result-cache entry writes", c.Stores)
		b.Counter("inipd_result_cache_errors_total", "rejected entries and surfaced write failures", c.Errors)
		b.Counter("inipd_result_cache_heal_failures_total", "writes demoted after the cache latched read-only", c.HealFailures)
		ro := 0
		if s.cfg.Cache.ReadOnly() {
			ro = 1
		}
		b.Gauge("inipd_result_cache_read_only", "1 after the cache demoted itself to read-only", ro)
	}
	if s.cfg.Trace != nil {
		b.Counter("inipd_trace_dropped_events_total", "flight-recorder events dropped (overflow or post-close)", s.cfg.Trace.Dropped())
	}

	b.Serve(w)
}
