package dbt

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
)

// Hot-loop microbenchmarks: the block dispatch paths (arena fast path
// vs generic interp.Exec) and RunMulti's batched follower replay, over
// two guest shapes — loop-heavy (long straight-line bodies, dispatch
// cost amortized over many instructions per block) and branch-heavy
// (short blocks, dispatch and successor resolution dominate). They make
// hot-loop wins measurable in seconds instead of a full-suite study:
//
//	go test ./internal/dbt -run '^$' -bench 'Exec|RunMulti' -benchtime 2s
//
// All of them report blocks/s, the study's headline throughput metric.

// buildLoopHeavy returns a guest spending its time in one long
// straight-line loop body: 16 ALU instructions per iteration and a
// single backward conditional.
func buildLoopHeavy(tb testing.TB, iters int32) *guest.Image {
	tb.Helper()
	src := `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r10, ` + itoa(iters) + `
loop:
	addi r1, r1, 1
	addi r2, r2, 3
	add r3, r1, r2
	sub r4, r3, r1
	xor r5, r3, r4
	and r6, r5, r3
	or r7, r6, r1
	addi r7, r7, 5
	shl r8, r1, r0
	shr r9, r3, r0
	mul r11, r1, r2
	add r12, r11, r7
	sub r12, r12, r9
	xor r13, r12, r8
	addi r13, r13, 9
	add r15, r13, r5
	addi r14, r14, 1
	blt r14, r10, loop
	halt
`
	img, err := guest.Assemble(src)
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return img
}

// buildBranchHeavy returns a guest spending its time bouncing between
// tiny blocks: a tape-driven diamond plus a call/return pair per
// iteration, so block dispatch, successor chaining and the indirect
// return path all stay on the critical path.
func buildBranchHeavy(tb testing.TB, iters int32) *guest.Image {
	tb.Helper()
	src := `
.entry main
main:
	loadi r14, 0
	loadi r6, 4096
	loadi r10, ` + itoa(iters) + `
loop:
	in r1
	blt r1, r6, taken
	addi r2, r2, 1
	jmp join
taken:
	addi r3, r3, 1
join:
	call leaf
	addi r14, r14, 1
	blt r14, r10, loop
	halt
leaf:
	addi r4, r4, 1
	ret
`
	img, err := guest.Assemble(src)
	if err != nil {
		tb.Fatalf("Assemble: %v", err)
	}
	return img
}

// benchRunOne measures serial Run throughput for one guest and path.
func benchRunOne(b *testing.B, img *guest.Image, disableFast bool) {
	b.ReportAllocs()
	var blocks uint64
	for i := 0; i < b.N; i++ {
		_, stats, err := Run(img, interp.NewUniformTape("bench/ref"), Config{
			Optimize:        true,
			Threshold:       4096,
			DisableFastPath: disableFast,
		})
		if err != nil {
			b.Fatal(err)
		}
		blocks += stats.BlocksExecuted
	}
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkExecBlock exercises the arena fast path (execBlock).
func BenchmarkExecBlock(b *testing.B) {
	b.Run("loop_heavy", func(b *testing.B) { benchRunOne(b, buildLoopHeavy(b, 200_000), false) })
	b.Run("branch_heavy", func(b *testing.B) { benchRunOne(b, buildBranchHeavy(b, 100_000), false) })
}

// BenchmarkExecGeneric forces the generic interp.Exec dispatch
// (DisableFastPath), the reference the fast path is measured against.
func BenchmarkExecGeneric(b *testing.B) {
	b.Run("loop_heavy", func(b *testing.B) { benchRunOne(b, buildLoopHeavy(b, 200_000), true) })
	b.Run("branch_heavy", func(b *testing.B) { benchRunOne(b, buildBranchHeavy(b, 100_000), true) })
}

// benchRunMulti measures shared-trace throughput with one driver plus
// followers at a ladder of thresholds, the study's actual execution
// shape. Reported blocks/s sums over every profiling context advanced
// (driver + followers), matching how the study's Perf aggregates;
// ns/follower-block divides the whole shared run's time (driver share
// included) by the blocks the followers replayed. With perf set, every
// engine charges a DefaultParams perf-model accumulator, as study runs
// do.
func benchRunMulti(b *testing.B, img *guest.Image, followers int, perf bool) {
	b.ReportAllocs()
	cfgs := make([]Config, 1+followers)
	cfgs[0] = Config{Optimize: false} // AVEP driver
	for i := 1; i < len(cfgs); i++ {
		cfgs[i] = Config{Optimize: true, Threshold: uint64(64 << (uint(i-1) % 8))}
	}
	var blocks, followerBlocks uint64
	for i := 0; i < b.N; i++ {
		if perf {
			for j := range cfgs {
				cfgs[j].Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
			}
		}
		_, statss, err := RunMulti(img, interp.NewUniformTape("bench/ref"), cfgs)
		if err != nil {
			b.Fatal(err)
		}
		for j, st := range statss {
			blocks += st.BlocksExecuted
			if j > 0 {
				followerBlocks += st.BlocksExecuted
			}
		}
	}
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(followerBlocks), "ns/follower-block")
}

// BenchmarkRunMulti measures batched follower replay at 1, 4 and 16
// profiling contexts behind one driver, for both guest shapes, without
// and with (the /perf variants) the perf model's per-block charges.
func BenchmarkRunMulti(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		n := n
		for _, perf := range []bool{false, true} {
			perf := perf
			suffix := ""
			if perf {
				suffix = "/perf"
			}
			b.Run("loop_heavy/followers_"+itoa(int32(n))+suffix, func(b *testing.B) {
				benchRunMulti(b, buildLoopHeavy(b, 50_000), n, perf)
			})
			b.Run("branch_heavy/followers_"+itoa(int32(n))+suffix, func(b *testing.B) {
				benchRunMulti(b, buildBranchHeavy(b, 25_000), n, perf)
			})
		}
	}
}
