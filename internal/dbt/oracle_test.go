package dbt

import (
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

// The per-entry oracle: the translator's serial step, one block at a
// time, kept as the reference the batched loops are checked against.
// preExec is the pre-execution accounting (block count, budget, trap,
// interrupt poll), postExec the profiling step past one executed block
// (counters, registration, waves, perf charges, region tracking,
// successor resolution through the chain pointers and the code cache).
// fillBatch (the serial run and RunMulti's driver) and drainBatch (the
// follower replay) are restructured copies of this sequence; the
// differential below steps an oracle follower through every recorded
// batch and requires drainBatch to end in the identical state.

// preExec accounts for the upcoming execution of the cursor block and
// enforces the budget and interrupt checks, exactly where the serial
// loop always performed them: before the block runs.
func (e *Engine) preExec() error {
	e.stats.BlocksExecuted++
	if e.budget > 0 && e.stats.BlocksExecuted > e.budget {
		return e.budgetExhausted()
	}
	if e.trapAfter > 0 && e.stats.BlocksExecuted >= e.trapAfter {
		return e.trapped()
	}
	if e.stats.BlocksExecuted&interruptCheckMask == 0 {
		// Checkpoints count on every engine — with or without an
		// interrupt channel — so shared-trace followers (whose channel
		// is stripped; the driver polls for them) report the same
		// counter a serial run would.
		e.stats.InterruptPolls++
		if e.interrupt != nil {
			return e.pollInterrupt()
		}
	}
	return nil
}

// postExec advances the profiling state machine past the cursor block,
// given the architectural outcome of executing it (the next pc and the
// halt flag). It performs everything a run does besides executing guest
// instructions — counters, registration, optimization waves, perf
// charges and region tracking — and moves the cursor to the successor
// block. Because profiling never feeds back into guest execution, the
// outcome may equally come from this engine's own execBlock or from a
// different engine that executed the same trace (see RunMulti).
//
// fillBatch and drainBatch (multi.go) inline this body together with
// preExec's; any behavioural change there must be mirrored here.
func (e *Engine) postExec(nextPC int, halted bool) error {
	tb := e.cur
	e.stats.Instructions += uint64(tb.ninsts)
	// Dispatch accounting mirrors the run loops' path choice. Followers
	// never execute guest code themselves, but counting here — from the
	// follower's own cache and config — keeps their statistics
	// bit-identical to a serial run's.
	if e.fastPath && tb.lowered {
		e.stats.FastDispatches++
	} else {
		e.stats.GenericDispatches++
	}

	takenEdge := tb.hasBranch && nextPC == tb.takenTarget
	if !tb.hasBranch {
		takenEdge = true // unconditional transfers use the taken edge
	}

	// Sampling stride: the countdown ticks on every block event (frozen
	// or not), so the sampled-event set depends only on the engine's own
	// event count — the determinism contract of sampling.go.
	sampledEvent := true
	if e.samplePeriod > 1 {
		e.sampleGap--
		if e.sampleGap == 0 {
			e.sampleGap = e.samplePeriod
		} else {
			sampledEvent = false
		}
	}

	// Profiling phase instrumentation.
	if !tb.frozen && sampledEvent {
		tb.use++
		e.profOps++
		if tb.hasBranch && takenEdge {
			tb.taken++
			e.profOps++
		}
		if e.optimize {
			// Fixed-threshold registration reduces to an equality
			// test against the precomputed next multiple; the
			// convergence heuristic keeps the full check.
			var ready bool
			if e.converge {
				ready = e.shouldRegister(tb)
			} else if tb.use == tb.nextRegister {
				ready = true
				tb.nextRegister += e.regThreshold
			}
			if ready {
				if e.register(tb) {
					e.optimizeWave()
				}
			}
		}
	}

	// Resolve the successor block through the chained edge pointers —
	// most-recent edge first, then the indirect-target table — falling
	// back to the code-cache lookup (translation of a new block waits
	// until after the region bookkeeping, matching the cache state the
	// region-entry check always observed).
	var next *tblock
	if takenEdge {
		if nb := tb.takenBlk; nb != nil && nb.addr == nextPC {
			next = nb
		}
	} else if nb := tb.fallBlk; nb != nil && nb.addr == nextPC {
		next = nb
	}
	if next == nil && tb.itab != nil {
		if nb := tb.itab[nextPC&(indirectWays-1)]; nb != nil && nb.addr == nextPC {
			next = nb
			tb.takenBlk = nb // refresh the most-recent entry
		}
	}
	if next == nil {
		if next = e.lookup(nextPC); next != nil {
			e.chain(tb, takenEdge, next)
		}
	}

	// Perf accounting and region tracking. A frozen block executes
	// at full optimized speed only when control is following one of
	// its regions' expected paths (the cursor is on it); frozen
	// code reached outside a region context was retranslated for a
	// different path and gets no scheduling benefit.
	if e.perf != nil {
		switch {
		case tb.frozen && e.curNode != nil && e.curNode.addr == tb.addr:
			e.perf.ChargeOptimizedBlock(int(tb.costSum))
		case tb.frozen:
			e.perf.ChargeOffTraceBlock(int(tb.costSum))
		case sampledEvent:
			e.perf.ChargeQuickBlock(int(tb.costSum))
		default:
			// Unfrozen block on an unsampled event: quick-translated
			// execution without the counter-update overhead — the cost
			// saving sampling exists to buy.
			e.perf.ChargeQuickBlockUnprofiled(int(tb.costSum))
		}
	}
	if e.optimize {
		if e.curRegion != nil {
			e.trackRegion(tb, takenEdge)
		}
		// If control is about to arrive at a region entry while no
		// region is active, open it.
		if next != nil && e.curRegion == nil && next.regionEntry != nil {
			e.curRegion = next.regionEntry
			e.curRegion.entries++
			e.curNode = next.regionEntry.entry
			e.stats.RegionEntries++
		}
	}

	if halted {
		e.halted = true
		return nil
	}
	if next == nil {
		var err error
		next, err = e.translate(nextPC)
		if err != nil {
			return err
		}
		e.chain(tb, takenEdge, next)
	}
	e.cur = next
	return nil
}

// trackRegion advances the region execution cursor given that the block
// at tb was just executed and control moves to nextPC (takenEdge tells
// which terminator edge fired). It also feeds the perf model's side-exit
// accounting.
func (e *Engine) trackRegion(tb *tblock, takenEdge bool) {
	if e.curRegion != nil {
		node := e.curNode
		if node == nil || node.addr != tb.addr {
			// The cursor went stale (should not happen); treat as exit.
			e.leaveRegion(false)
			return
		}
		var next *rtNode
		if takenEdge {
			next = node.taken
		} else {
			next = node.fall
		}
		switch {
		case next == nil:
			rt := e.curRegion
			completed := rt.r.Kind == profile.RegionTrace && node == &rt.nodes[len(rt.nodes)-1]
			e.leaveRegion(completed)
		case next == e.curRegion.entry:
			e.stats.RegionLoopBacks++
			e.curRegion.loopBacks++
			e.curNode = next
		default:
			e.curNode = next
		}
	}
}

// stepOracle replays one recorded batch through e entry by entry with
// the oracle step, using only the architectural outcome: successors
// are resolved from the engine's own chain pointers and code cache.
func stepOracle(e *Engine, batch []outcome) error {
	for _, o := range batch {
		if err := e.preExec(); err != nil {
			return err
		}
		if err := e.postExec(int(o.nextPC), o.halted); err != nil {
			return err
		}
	}
	return nil
}

// oracleConfigs are the follower configurations of the oracle
// differential: the tight optimizing setup of runPath (waves, freezing
// and region tracking all fire in tiny programs), the same under
// sampled profiling and under adaptive dissolution with continuous trip
// counts, and one whose trap stops it mid-batch.
func oracleConfigs() []Config {
	base := Config{Input: "ref", Optimize: true, Threshold: 8, PoolTrigger: 2, RegisterTwice: true, MaxBlockExecs: 20_000}
	sampled := base
	sampled.SamplePeriod, sampled.SampleSeed = 4, 3
	adaptive := base
	adaptive.Adaptive, adaptive.AdaptiveMinEntries, adaptive.AdaptiveSideExitRate = true, 4, 0.1
	adaptive.ContinuousTripCount = true
	trapped := base
	trapped.TrapAfter = 300
	return []Config{base, sampled, adaptive, trapped}
}

// checkReplayOracle executes img once and replays every recorded batch
// — including the prefix recorded before a driver fault — through two
// followers per oracle configuration: one drained by drainBatch, one
// stepped by the oracle. Both must fail identically and end with equal
// snapshots, statistics (CacheLookups included) and bit-identical perf
// accumulators.
func checkReplayOracle(t *testing.T, img *guest.Image) {
	t.Helper()
	driver, err := New(img, interp.NewUniformTape("fuzz/ref"), Config{Input: "ref", MaxBlockExecs: 20_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if driver.start() != nil {
		return // the entry block does not translate; nothing to replay
	}
	cfgs := oracleConfigs()
	drained := make([]*Engine, len(cfgs))
	stepped := make([]*Engine, len(cfgs))
	errs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		for _, e := range []**Engine{&drained[i], &stepped[i]} {
			c := cfg
			c.Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
			f, err := New(img, nil, c)
			if err != nil {
				t.Fatalf("New follower: %v", err)
			}
			// The drained follower skips lowering as RunMulti's do; the
			// oracle lowers, so the dispatch split also checks
			// lowerable against lower.
			f.replay = e == &drained[i]
			if err := f.start(); err != nil {
				t.Fatalf("follower start: %v", err)
			}
			*e = f
		}
	}
	buf := make([]outcome, 0, replayBatch)
	for done := false; !done; {
		first := driver.cur
		var batch []outcome
		var ferr error
		batch, done, ferr = driver.fillBatch(buf[:0])
		sums := sumBatch(driver.blocks, first, batch)
		for i := range cfgs {
			if errs[i] != "" {
				continue
			}
			dmsg, smsg := errText(drained[i].drainBatch(batch, sums)), errText(stepOracle(stepped[i], batch))
			if dmsg != smsg {
				t.Fatalf("config %d: drainBatch error %q, oracle error %q\nprogram:\n%s", i, dmsg, smsg, img.Disassemble())
			}
			errs[i] = dmsg
		}
		if ferr != nil {
			break
		}
	}
	for i := range cfgs {
		d, s := drained[i], stepped[i]
		if d.cur.addr != s.cur.addr || d.halted != s.halted {
			t.Fatalf("config %d: cursor %d/halted %v, oracle %d/%v\nprogram:\n%s", i, d.cur.addr, d.halted, s.cur.addr, s.halted, img.Disassemble())
		}
		if !reflect.DeepEqual(d.stats, s.stats) {
			t.Fatalf("config %d: stats differ from the oracle\n got: %+v\nwant: %+v\nprogram:\n%s", i, d.stats, s.stats, img.Disassemble())
		}
		if !reflect.DeepEqual(d.snapshot(), s.snapshot()) {
			t.Fatalf("config %d: snapshot differs from the oracle\nprogram:\n%s", i, img.Disassemble())
		}
		if diff := accDiff(d.perf, s.perf); diff != "" {
			t.Fatalf("config %d: perf accumulator differs from the oracle: %s\nprogram:\n%s", i, diff, img.Disassemble())
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
