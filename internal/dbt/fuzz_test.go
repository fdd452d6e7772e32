package dbt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/isa"
)

// Differential testing of the two dispatch paths: random small guest
// programs run through both the arena fast path and the generic
// interp.Exec dispatch, which must agree on everything — architectural
// state, profile snapshot, run statistics and faults. FuzzExecPaths
// explores the program space under the fuzzer; TestExecPathsRandom
// pins 300 seeded programs of the same generator as a deterministic
// regression suite.

// progGen derives program-construction decisions from a byte stream,
// yielding zeros once the stream is exhausted (which steers every
// terminator to halt, so generation always ends).
type progGen struct {
	data []byte
	i    int
}

func (g *progGen) next() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

// buildFuzzProgram turns a byte stream into a valid SG32 image: a
// handful of labeled segments with data-driven bodies (ALU, memory,
// tape input, floats) and terminators covering every lowered class —
// conditional branches, jumps, calls, returns, indirect jumps through
// already-bound labels, and halt. Faulting programs (out-of-bounds
// memory, stray ret, jr into nowhere, infinite loops hitting the block
// budget) are deliberately reachable: both dispatch paths must report
// the identical fault. Returns nil if the builder rejects the program
// (branch offset overflow), which the callers skip.
func buildFuzzProgram(data []byte) *guest.Image {
	g := &progGen{data: data}
	b := guest.NewBuilder("fuzz")
	nseg := 2 + int(g.next()%5)
	labels := make([]guest.Label, nseg)
	for i := range labels {
		labels[i] = b.NewLabel("seg")
	}
	b.ReserveData(16)
	b.SetEntry(labels[0])
	starts := make([]int, nseg)

	aluOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr}
	brOps := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}

	for s := 0; s < nseg; s++ {
		starts[s] = b.PC()
		b.Bind(labels[s])
		for n := int(g.next() % 7); n > 0; n-- {
			sel := g.next()
			rd, rs, rt := g.next()&15, g.next()&15, g.next()&15
			switch sel % 8 {
			case 0, 1, 2:
				b.Emit(isa.Inst{Op: aluOps[int(sel)%len(aluOps)], Rd: rd, Rs: rs, Rt: rt})
			case 3:
				b.Emit(isa.Inst{Op: isa.OpAddi, Rd: rd, Rs: rs, Imm: int32(int8(g.next()))})
			case 4:
				b.Emit(isa.Inst{Op: isa.OpLoadi, Rd: rd, Imm: int32(int8(g.next()))})
			case 5:
				// Offsets straddle the 16-word data segment so some
				// accesses fault; the fault must match across paths.
				op := isa.OpLoad
				if sel&8 != 0 {
					op = isa.OpStore
				}
				b.Emit(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt, Imm: int32(g.next()%24) - 4})
			case 6:
				b.In(rd)
			case 7:
				fops := []isa.Op{isa.OpFadd, isa.OpFmul, isa.OpFdiv, isa.OpNop, isa.OpMov, isa.OpLuhi}
				b.Emit(isa.Inst{Op: fops[int(g.next())%len(fops)], Rd: rd, Rs: rs, Rt: rt})
			}
		}
		tgt := labels[int(g.next())%nseg]
		switch g.next() % 8 {
		case 0, 1:
			b.Branch(brOps[int(g.next())%len(brOps)], g.next()&15, g.next()&15, tgt)
		case 2:
			b.Jump(tgt)
		case 3:
			b.Call(tgt)
		case 4:
			b.Ret()
		case 5:
			// Indirect jump to an already-bound segment: the target
			// address is known, so it can be materialized for jr.
			t := int(g.next()) % (s + 1)
			b.LoadImm(9, int32(starts[t]))
			b.JumpIndirect(9, labels[t])
		default:
			b.Emit(isa.Inst{Op: isa.OpHalt})
		}
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	img, err := b.Build()
	if err != nil {
		return nil
	}
	return img
}

// runPath executes the image under one dispatch path with a tight
// optimization configuration (low threshold and pool trigger, so waves,
// freezing and region tracking all fire even in tiny programs) and a
// block budget bounding divergent programs.
func runPath(tb testing.TB, img *guest.Image, disableFast bool) (*Engine, string) {
	tb.Helper()
	e, err := New(img, interp.NewUniformTape("fuzz/ref"), Config{
		Optimize:        true,
		Threshold:       8,
		PoolTrigger:     2,
		RegisterTwice:   true,
		MaxBlockExecs:   20_000,
		DisableFastPath: disableFast,
	})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	_, _, rerr := e.Run()
	msg := ""
	if rerr != nil {
		msg = rerr.Error()
	}
	return e, msg
}

// checkExecPaths runs the program both ways and asserts full agreement,
// then checks follower replay of its trace against the per-entry oracle.
func checkExecPaths(t *testing.T, data []byte) {
	img := buildFuzzProgram(data)
	if img == nil {
		return
	}
	checkReplayOracle(t, img)
	fast, fastErr := runPath(t, img, false)
	gen, genErr := runPath(t, img, true)

	if fastErr != genErr {
		t.Fatalf("fault mismatch:\nfast: %q\ngeneric: %q\nprogram:\n%s", fastErr, genErr, img.Disassemble())
	}
	fs, gs := fast.State(), gen.State()
	if fs.Regs != gs.Regs {
		t.Fatalf("register mismatch:\nfast: %v\ngeneric: %v\nprogram:\n%s", fs.Regs, gs.Regs, img.Disassemble())
	}
	if !reflect.DeepEqual(fs.Mem, gs.Mem) {
		t.Fatalf("memory mismatch:\nfast: %v\ngeneric: %v\nprogram:\n%s", fs.Mem, gs.Mem, img.Disassemble())
	}
	if !reflect.DeepEqual(fs.Ret, gs.Ret) {
		t.Fatalf("return-stack mismatch:\nfast: %v\ngeneric: %v\nprogram:\n%s", fs.Ret, gs.Ret, img.Disassemble())
	}
	if fastErr != "" {
		return // errored runs publish no snapshot or stats
	}

	fstats, gstats := fast.stats, gen.stats
	if fstats.GenericDispatches != 0 {
		t.Fatalf("fast path took %d generic dispatches on a fully lowerable program", fstats.GenericDispatches)
	}
	if gstats.FastDispatches != 0 {
		t.Fatalf("generic path took %d fast dispatches", gstats.FastDispatches)
	}
	// The dispatch split is the only permitted difference.
	fstats.FastDispatches, fstats.GenericDispatches = 0, 0
	gstats.FastDispatches, gstats.GenericDispatches = 0, 0
	if !reflect.DeepEqual(fstats, gstats) {
		t.Fatalf("stats mismatch:\nfast: %+v\ngeneric: %+v\nprogram:\n%s", fstats, gstats, img.Disassemble())
	}
	if !reflect.DeepEqual(fast.snapshot(), gen.snapshot()) {
		t.Fatalf("snapshot mismatch\nprogram:\n%s", img.Disassemble())
	}
}

// FuzzExecPaths is the fuzz entry: any byte stream builds some program,
// and both dispatch paths must agree on it exactly.
func FuzzExecPaths(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 250, 1, 9, 9, 30, 40})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkExecPaths(t, data)
	})
}

// TestExecPathsRandom pins the differential check on 300 seeded random
// programs, so the cross-validation runs in every plain `go test`, not
// only under the fuzzer.
func TestExecPathsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		checkExecPaths(t, data)
	}
}

// branchLog records the observed branch stream (what predictors
// consume) for differential comparison across dispatch paths.
type branchLog struct {
	events []BranchEvent
}

func (l *branchLog) ObserveBranches(evs []BranchEvent) {
	l.events = append(l.events, evs...)
}

// checkPredictReplay runs one random program under both dispatch paths
// with a trace observer attached and asserts the observed branch
// streams are identical — the determinism contract every dynamic
// predictor's tallies rest on. The observed run must also leave
// snapshots and stats exactly as an unobserved run would.
func checkPredictReplay(t *testing.T, data []byte) {
	img := buildFuzzProgram(data)
	if img == nil {
		return
	}
	run := func(disableFast, observed bool) (*branchLog, []*RunStats, string) {
		cfg := Config{
			Input:           "ref",
			Optimize:        true,
			Threshold:       8,
			PoolTrigger:     2,
			RegisterTwice:   true,
			MaxBlockExecs:   20_000,
			DisableFastPath: disableFast,
		}
		log := &branchLog{}
		var obs []TraceObserver
		if observed {
			obs = []TraceObserver{log}
		}
		_, stats, err := RunMultiObserved(img, interp.NewUniformTape("fuzz/ref"), []Config{cfg}, obs)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		return log, stats, msg
	}

	fastLog, fastStats, fastErr := run(false, true)
	genLog, _, genErr := run(true, true)
	if fastErr != genErr {
		t.Fatalf("fault mismatch:\nfast: %q\ngeneric: %q\nprogram:\n%s", fastErr, genErr, img.Disassemble())
	}
	if !reflect.DeepEqual(fastLog.events, genLog.events) {
		t.Fatalf("branch streams diverge between dispatch paths (%d vs %d events)\nprogram:\n%s",
			len(fastLog.events), len(genLog.events), img.Disassemble())
	}

	// Observation must be invisible: an unobserved run of the same
	// program reports identical stats.
	_, plainStats, plainErr := run(false, false)
	if plainErr != fastErr {
		t.Fatalf("observer changed the run's fault: %q vs %q", plainErr, fastErr)
	}
	if fastErr == "" && !reflect.DeepEqual(fastStats, plainStats) {
		t.Fatalf("observer perturbed run stats:\nobserved: %+v\nplain: %+v", fastStats[0], plainStats[0])
	}
	if fastErr != "" {
		return
	}

	// Every observed event must reference a branch block, and the
	// stream must be consistent with the run's block count.
	if n := fastStats[0].BlocksExecuted; uint64(len(fastLog.events)) > n {
		t.Fatalf("%d branch events exceed %d executed blocks", len(fastLog.events), n)
	}
}

// FuzzPredictReplay is the differential fuzz target for the predictor
// observation layer, alongside FuzzExecPaths: any byte stream builds
// some program, and the branch stream predictors consume must be
// bit-identical across dispatch paths and invisible to the run itself.
func FuzzPredictReplay(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 250, 1, 9, 9, 30, 40})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkPredictReplay(t, data)
	})
}

// TestPredictReplayRandom pins the replay differential on 300 seeded
// random programs in every plain `go test`.
func TestPredictReplayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		checkPredictReplay(t, data)
	}
}
