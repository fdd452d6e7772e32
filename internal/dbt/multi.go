// Shared-trace execution: because profiling state (counters, frozen
// flags, regions, perf charges) never feeds back into guest execution,
// every run of the same image over the same tape follows the identical
// block trace regardless of its threshold or optimization settings.
// RunMulti exploits this: it executes the guest once and replays each
// architectural outcome through any number of independent profiling
// engines, so an AVEP run and a whole INIP(T) ladder cost one execution
// plus N bookkeeping passes instead of N full runs.
//
// Each follower engine keeps its own code cache, counters, region
// former and perf accumulator, and ends with bit-for-bit the snapshot,
// statistics and cycle totals a serial Run with the same Config would
// have produced. Tests cross-validate this for every configuration
// class and step a per-entry oracle (oracle_test.go) against the
// follower loop.
//
// Replay is driver-resolved. How a block's successor is found depends
// on the trace alone: chain pointers are written only on resolution
// misses, and a block is translated only on its first visit, so every
// engine replaying one trace translates the same blocks in the same
// order — assigning the same dense tblock ids — and probes the code
// cache on the same entries. The driver therefore records per entry,
// beside the architectural outcome (nextPC, halted), the successor's
// block id, the taken-edge bit and whether resolution reached the
// code-cache lookup. A follower indexes its flat block table by the
// recorded id instead of chasing chain pointers, and translates only
// when the id is the next one it would assign; a translation that lands
// on any other id is an error, never a silent divergence. Followers
// write no chain pointers and no indirect-target tables, and lower no
// code: they only check each block for lowerability, since the
// dispatch split they report depends on it. Since each
// entry executes the same block on every engine, the instruction count,
// the number of lowered (fast-dispatchable) blocks and the number of
// cache probes of a batch are the same for every follower too: the
// driver sums them once per batch (sumBatch), and a follower re-sums
// only the prefix it processed when it stops mid-batch.
//
// Replay is batched: the driver records outcomes into a fixed buffer of
// replayBatch entries, and each follower then drains the whole batch in
// one tight loop (drainBatch). Counters, wave timing and interrupt-poll
// cadence are all driven by each engine's own block count, so nothing
// observable changes versus per-block interleaving. What changes is
// locality: one follower's caches, counters and region state stay hot
// across thousands of entries instead of 1+N engines evicting each
// other every block. The cursors, the sampling countdown and the perf
// model's running total and execution tallies stay in locals for the
// whole batch; the tallies are handed to the Accumulator around the
// only callees that charge it or may run long (optimizeWave, translate,
// adaptive dissolution) and at the flush, and every float add happens in
// the serial order, so the totals are bit-identical.
//
// The only semantic skew is error ordering across engines — the driver
// executes up to replayBatch blocks ahead, so a driver-side fault at
// block k+j can surface before a follower's budget/trap error at block
// k. Errored RunMulti results are discarded wholesale by every caller,
// and in practice all configs share TrapAfter/MaxBlockExecs, so the
// first error wins identically.
package dbt

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

// replayBatch is the outcome-buffer size of RunMulti's batched replay,
// aligned with the interrupt-poll period so the driver's poll cadence
// bounds how far execution runs ahead of follower bookkeeping.
const replayBatch = interruptCheckMask + 1

// outcome is one recorded block outcome: everything a follower needs to
// advance its profiling state machine past one block. nextPC and halted
// are architectural; next, taken and lookup record how the driver
// resolved the successor, which every follower would resolve the same
// way (see the package comment).
type outcome struct {
	nextPC int32
	// next is the successor's block id: a row of the flat block table,
	// equal to the table's length when the driver translated the
	// successor for this entry, and -1 on a halting entry whose
	// successor address holds no translated block.
	next   int32
	halted bool
	// taken is the fired terminator edge (always set for blocks without
	// a conditional branch).
	taken bool
	// lookup reports that resolution missed the chain pointers and
	// probed the code cache (one CacheLookups count).
	lookup bool
}

// RunMulti executes the guest once and produces one profile snapshot
// and one statistics record per configuration, as if each configuration
// had been run serially with Run over an identical tape. The first
// configuration drives execution: its Input, DisableFastPath, Interrupt
// and MaxBlockExecs settings govern the shared trace, and the tape is
// consumed by it alone. All configurations must agree on what the guest
// does — they may differ in profiling settings (Threshold, Optimize,
// Perf, adaptive/convergence knobs) but not in anything architectural.
func RunMulti(img *guest.Image, tape interp.Tape, cfgs []Config) ([]*profile.Snapshot, []*RunStats, error) {
	return runMulti(img, tape, cfgs, nil)
}

// runMulti is the shared body of RunMulti and RunMultiObserved. With
// observers, each filled batch is additionally walked for resolved
// conditional branches (see observe.go) before the followers drain it;
// the walk reads only recorded outcomes and static block properties, so
// execution, profiling and statistics are untouched by it.
func runMulti(img *guest.Image, tape interp.Tape, cfgs []Config, observers []TraceObserver) ([]*profile.Snapshot, []*RunStats, error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("dbt: RunMulti needs at least one config")
	}
	engines := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		var tp interp.Tape
		if i == 0 {
			tp = tape
		} else {
			// Followers never execute guest instructions, so they need
			// no tape, lower no code, and must not poll the interrupt
			// channel (the driver already does).
			cfg.Interrupt = nil
		}
		e, err := New(img, tp, cfg)
		if err != nil {
			return nil, nil, err
		}
		e.replay = i > 0
		engines[i] = e
	}
	driver := engines[0]
	for _, e := range engines {
		if err := e.start(); err != nil {
			return nil, nil, err
		}
	}
	followers := engines[1:]
	buf := make([]outcome, 0, replayBatch)
	var events []BranchEvent
	if len(observers) > 0 {
		events = make([]BranchEvent, 0, replayBatch)
	}
	done := false
	for !done {
		// Fill one batch: the driver's budget/interrupt check runs
		// before each block, exactly as in a serial run. The batch's
		// first block is the driver's cursor, which the observer walk
		// and sumBatch need before fillBatch advances it.
		first := driver.cur
		var batch []outcome
		var err error
		batch, done, err = driver.fillBatch(buf[:0])
		if err != nil {
			return nil, nil, err
		}
		if len(observers) > 0 {
			events = appendBranchEvents(events[:0], driver, first.addr, batch)
			for _, o := range observers {
				o.ObserveBranches(events)
			}
		}
		// Drain it through each follower: per entry the exact serial
		// bookkeeping, successors resolved from the recorded ids, over
		// thousands of entries per engine switch.
		if len(followers) > 0 {
			sums := sumBatch(driver.blocks, first, batch)
			for _, e := range followers {
				if err := e.drainBatch(batch, sums); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	snaps := make([]*profile.Snapshot, len(engines))
	statss := make([]*RunStats, len(engines))
	for i, e := range engines {
		snaps[i], statss[i], _ = e.finish()
	}
	return snaps, statss, nil
}

// fillBatch executes the guest until the appended outcome batch reaches
// its capacity, the guest halts (done=true), or the engine stops with an
// error. It is the execution twin of drainBatch: the per-block step of
// the serial run (the oracle of oracle_test.go), inlined so the block
// count, poll tick, sum counters and the block/region cursors live in
// registers across the batch and are written back once. Both the serial
// Run loop and RunMulti's driver use it — the serial caller just
// discards the recorded outcomes. An entry is appended once its
// successor is resolved or translated, so it carries the successor's
// block id; an entry whose translation fails is not recorded.
//
// Any behavioural edit here MUST be mirrored in drainBatch and the
// oracle; the serial-vs-follower equivalence tests, the oracle
// differential and FuzzExecPaths pin the contract bit-for-bit.
func (e *Engine) fillBatch(batch []outcome) ([]outcome, bool, error) {
	count := e.stats.BlocksExecuted
	var instr, fastN, genN, polls uint64
	budget, trapAfter, interrupt := e.budget, e.trapAfter, e.interrupt
	fastPath, optimize, conv := e.fastPath, e.optimize, e.converge
	samplePeriod, gap := e.samplePeriod, e.sampleGap
	perf := e.perf
	cur := e.cur
	curRegion, curNode := e.curRegion, e.curNode
	done := false
	kind := 0 // 0 clean, 1 budget, 2 trap, 3 raw error
	var retErr error

	for len(batch) < cap(batch) {
		// preExec, inlined: count first, budget before trap, poll tick
		// before the channel read — erroring paths flush the count they
		// already incremented but never reach the later checks.
		count++
		if budget > 0 && count > budget {
			kind = 1
			break
		}
		if trapAfter > 0 && count >= trapAfter {
			kind = 2
			break
		}
		if count&interruptCheckMask == 0 {
			polls++
			if interrupt != nil {
				if err := e.pollInterrupt(); err != nil {
					kind, retErr = 3, err
					break
				}
			}
		}

		tb := cur
		var (
			nextPC int
			halted bool
			err    error
		)
		if fastPath && tb.lowered {
			nextPC, halted, err = e.execBlock(tb)
		} else {
			nextPC, halted, err = e.execBlockGeneric(tb)
		}
		if err != nil {
			kind, retErr = 3, err
			break
		}

		// The profiling step (the same body as drainBatch's replay loop,
		// which takes the successor from the recorded outcome instead).
		instr += uint64(tb.ninsts)
		if fastPath && tb.lowered {
			fastN++
		} else {
			genN++
		}
		takenEdge := !tb.hasBranch || nextPC == tb.takenTarget
		sampledEvent := true
		if samplePeriod > 1 {
			gap--
			if gap == 0 {
				gap = samplePeriod
			} else {
				sampledEvent = false
			}
		}
		if !tb.frozen && sampledEvent {
			tb.use++
			e.profOps++
			if tb.hasBranch && takenEdge {
				tb.taken++
				e.profOps++
			}
			if optimize {
				var ready bool
				if conv {
					ready = e.shouldRegister(tb)
				} else if tb.use == tb.nextRegister {
					ready = true
					tb.nextRegister += e.regThreshold
				}
				if ready && e.register(tb) {
					e.optimizeWave()
				}
			}
		}
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
				tb.takenBlk = nb
			}
		}
		lookedUp := next == nil
		if lookedUp {
			if next = e.lookup(nextPC); next != nil {
				e.chain(tb, takenEdge, next)
			}
		}
		if perf != nil {
			switch {
			case tb.frozen && curNode != nil && curNode.addr == tb.addr:
				perf.ChargeOptimizedBlock(int(tb.costSum))
			case tb.frozen:
				perf.ChargeOffTraceBlock(int(tb.costSum))
			case sampledEvent:
				perf.ChargeQuickBlock(int(tb.costSum))
			default:
				perf.ChargeQuickBlockUnprofiled(int(tb.costSum))
			}
		}
		if optimize {
			if rt := curRegion; rt != nil {
				node := curNode
				if node == nil || node.addr != tb.addr {
					e.curRegion = rt
					e.leaveRegion(false)
					curRegion, curNode = nil, nil
				} else {
					var nn *rtNode
					if takenEdge {
						nn = node.taken
					} else {
						nn = node.fall
					}
					switch {
					case nn == nil:
						e.curRegion = rt
						e.leaveRegion(node == rt.completes)
						curRegion, curNode = nil, nil
					case nn == rt.entry:
						e.stats.RegionLoopBacks++
						rt.loopBacks++
						curNode = nn
					default:
						curNode = nn
					}
				}
			}
			if next != nil && curRegion == nil && next.regionEntry != nil {
				curRegion = next.regionEntry
				curRegion.entries++
				curNode = curRegion.entry
				e.stats.RegionEntries++
			}
		}

		if next == nil && !halted {
			next, err = e.translate(nextPC)
			if err != nil {
				kind, retErr = 3, err
				break
			}
			e.chain(tb, takenEdge, next)
		}
		id := int32(-1)
		if next != nil {
			id = next.id
		}
		batch = append(batch, outcome{nextPC: int32(nextPC), next: id, halted: halted, taken: takenEdge, lookup: lookedUp})
		if halted {
			e.halted = true
			done = true
			break
		}
		cur = next
	}

	// Flush, then materialize any stop error: trapped() formats the
	// flushed block count into its message.
	e.cur = cur
	e.curRegion, e.curNode = curRegion, curNode
	e.sampleGap = gap
	e.stats.BlocksExecuted = count
	e.stats.InterruptPolls += polls
	e.stats.Instructions += instr
	e.stats.FastDispatches += fastN
	e.stats.GenericDispatches += genN
	switch kind {
	case 1:
		return batch, false, e.budgetExhausted()
	case 2:
		return batch, false, e.trapped()
	case 3:
		return batch, false, retErr
	}
	return batch, done, nil
}

// batchSums are the counts every follower of a batch would otherwise
// accumulate entry by entry: guest instructions, entries whose block the
// lowerer accepted (fast dispatches on a fast-path engine), and entries
// flagged lookup.
type batchSums struct {
	instr, lowered, lookups uint64
}

// sumBatch totals batchSums over the entries of batch, whose first entry
// executes block cur; each later entry executes the block its
// predecessor recorded as successor. Block ids, lowering and
// instruction counts agree across the engines of one trace, so the
// driver sums a batch once for all followers, and a follower that stops
// mid-batch re-sums its prefix with its own blocks.
func sumBatch(blocks []*tblock, cur *tblock, batch []outcome) batchSums {
	var s batchSums
	for i := range batch {
		o := &batch[i]
		s.instr += uint64(cur.ninsts)
		if cur.lowered {
			s.lowered++
		}
		if o.lookup {
			s.lookups++
		}
		if id := uint(o.next); id < uint(len(blocks)) {
			cur = blocks[id]
		}
	}
	return s
}

// drainBatch replays one recorded batch through a follower engine,
// producing exactly the state stepping the per-entry oracle would. It
// is the study's hottest loop — one call per follower per 4096 blocks —
// so the serial step is restructured, never changed:
//
//   - budget/trap checks compare the block count against fixed values,
//     so the first entry (if any) whose step would error is computed up
//     front, in the serial order (count first, budget before trap);
//   - the interrupt-poll counter ticks on 4096-boundary crossings of
//     the block count, so a batch's ticks are pure arithmetic (RunMulti
//     strips follower interrupt channels; the driver polls for them);
//   - successors come from the driver's recorded block ids, and the
//     instruction, dispatch and cache-probe counts from the driver's
//     sums (see the package comment), so no entry counts them;
//   - the region cursor, the sampling countdown and the perf tallies
//     live in locals. leaveRegion is inlined, so leaving a region makes
//     no call; the locals are handed to the engine only around the rare
//     calls (registration and waves, adaptive dissolution, translation)
//     and at the flush, so they are never live across a call and the
//     float tallies stay in registers for the whole batch.
//
// Any behavioural edit to fillBatch's step MUST be mirrored here and in
// the oracle; the serial-vs-follower equivalence tests and the oracle
// differential pin the contract bit-for-bit.
func (e *Engine) drainBatch(batch []outcome, sums batchSums) error {
	start := e.stats.BlocksExecuted
	n := uint64(len(batch))
	stop, errKind := n, 0 // errKind: 0 clean, 1 budget, 2 trap
	if e.budget > 0 && start+n > e.budget {
		stop, errKind = e.budget-start, 1
	}
	if e.trapAfter > 0 {
		var at uint64
		if e.trapAfter > start {
			at = e.trapAfter - start - 1
		}
		if at < stop {
			stop, errKind = at, 2
		}
	}

	processed := stop
	var retErr error
	optimize, conv, adaptive := e.optimize, e.converge, e.cfg.Adaptive
	samplePeriod, gap := e.samplePeriod, e.sampleGap
	blocks := e.blocks
	first := e.cur
	cur := first
	curRegion, curNode := e.curRegion, e.curNode
	perf := e.perf
	var pp perfmodel.Params
	var cycles, quick, prof, optimized, offTrace, penalty float64
	if perf != nil {
		pp = perf.Params()
		cycles, quick, prof, optimized, offTrace, penalty = perf.ExecTallies()
	}
	for i := uint64(0); i < stop; i++ {
		o := &batch[i]
		tb := cur
		takenEdge := o.taken
		sampledEvent := true
		if samplePeriod > 1 {
			gap--
			if gap == 0 {
				gap = samplePeriod
			} else {
				sampledEvent = false
			}
		}
		if !tb.frozen && sampledEvent {
			tb.use++
			e.profOps++
			if tb.hasBranch && takenEdge {
				tb.taken++
				e.profOps++
			}
			if optimize && (conv || tb.use == tb.nextRegister) {
				// Registration may start a wave, which charges the
				// accumulator; the locals are handed over so that none
				// is live across the calls.
				e.curRegion, e.curNode = curRegion, curNode
				if perf != nil {
					perf.SetExecTallies(cycles, quick, prof, optimized, offTrace, penalty)
				}
				ready := true
				if conv {
					ready = e.shouldRegister(tb)
				} else {
					tb.nextRegister += e.regThreshold
				}
				if ready && e.register(tb) {
					e.optimizeWave()
				}
				if perf != nil {
					cycles, quick, prof, optimized, offTrace, penalty = perf.ExecTallies()
				}
				curRegion, curNode = e.curRegion, e.curNode
			}
		}

		// The successor is translated already unless its id is the next
		// one this engine assigns (or -1 on a halt).
		var next *tblock
		if id := uint(o.next); id < uint(len(blocks)) {
			next = blocks[id]
		}

		if perf != nil {
			cost := int(tb.costSum)
			switch {
			case tb.frozen && curNode != nil && curNode.addr == tb.addr:
				c := pp.OptimizedCost(cost)
				optimized += c
				cycles += c
			case tb.frozen:
				c := pp.OffTraceCost(cost)
				offTrace += c
				cycles += c
			case sampledEvent:
				q := pp.QuickCost(cost)
				quick += q
				prof += pp.ProfOverhead
				cycles += q + pp.ProfOverhead
			default:
				q := pp.QuickCost(cost)
				quick += q
				cycles += q
			}
		}
		if optimize {
			if rt := curRegion; rt != nil {
				// Advance the region cursor along the fired edge;
				// leaving the region is the cold path.
				node := curNode
				leave, completed := true, false
				if node != nil && node.addr == tb.addr {
					nn := node.fall
					if takenEdge {
						nn = node.taken
					}
					switch {
					case nn == nil:
						completed = node == rt.completes
					case nn == rt.entry:
						e.stats.RegionLoopBacks++
						rt.loopBacks++
						curNode, leave = nn, false
					default:
						curNode, leave = nn, false
					}
				}
				if leave {
					// leaveRegion, inlined: only adaptive dissolution
					// calls out.
					if completed {
						e.stats.RegionCompletions++
						rt.completions++
					} else {
						e.stats.RegionSideExits++
						rt.sideExits++
						if perf != nil {
							penalty += pp.SideExitPenalty
							cycles += pp.SideExitPenalty
						}
						if adaptive {
							e.curRegion, e.curNode = nil, nil
							if perf != nil {
								perf.SetExecTallies(cycles, quick, prof, optimized, offTrace, penalty)
							}
							e.maybeDissolve(rt)
							if perf != nil {
								cycles, quick, prof, optimized, offTrace, penalty = perf.ExecTallies()
							}
						}
					}
					curRegion, curNode = nil, nil
				}
			}
			if next != nil && curRegion == nil && next.regionEntry != nil {
				curRegion = next.regionEntry
				curRegion.entries++
				curNode = curRegion.entry
				e.stats.RegionEntries++
			}
		}

		if o.halted {
			// A halt is always the batch's final entry, so no budget or
			// trap stop can sit beyond it: fall through to the flush.
			e.halted = true
			processed = i + 1
			break
		}
		if next == nil {
			if perf != nil {
				perf.SetExecTallies(cycles, quick, prof, optimized, offTrace, penalty)
			}
			var err error
			next, err = e.translate(int(o.nextPC))
			if perf != nil {
				cycles, quick, prof, optimized, offTrace, penalty = perf.ExecTallies()
			}
			if err == nil && next.id != o.next {
				err = fmt.Errorf("dbt: follower translated block at %d as id %d, driver recorded id %d", next.addr, next.id, o.next)
			}
			if err != nil {
				processed, retErr = i+1, err
				break
			}
			blocks = e.blocks
		}
		cur = next
	}
	// Flush: processed entries are the fully pre-counted blocks; an
	// erroring step increments the block count afterwards but never
	// reaches the poll tick.
	const period = uint64(interruptCheckMask + 1)
	if processed != n {
		sums = sumBatch(e.blocks, first, batch[:processed])
	}
	fastN := uint64(0)
	if e.fastPath {
		fastN = sums.lowered
	}
	e.cur = cur
	e.curRegion, e.curNode = curRegion, curNode
	e.sampleGap = gap
	e.stats.Instructions += sums.instr
	e.stats.FastDispatches += fastN
	e.stats.GenericDispatches += processed - fastN
	e.stats.CacheLookups += sums.lookups
	e.stats.BlocksExecuted = start + processed
	e.stats.InterruptPolls += (start+processed)/period - start/period
	if perf != nil {
		perf.SetExecTallies(cycles, quick, prof, optimized, offTrace, penalty)
	}
	if retErr != nil {
		return retErr
	}
	if processed == stop {
		switch errKind {
		case 1:
			e.stats.BlocksExecuted++
			return e.budgetExhausted()
		case 2:
			e.stats.BlocksExecuted++
			return e.trapped()
		}
	}
	return nil
}
