package dbt

import (
	"math"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

// phasedLooper builds a program whose single hot branch flips its bias
// at the given iteration: the scenario the adaptive mode exists for.
func phasedLooper(t testing.TB, iters, boundary, earlyBias, lateBias int32) func(cfg Config) (*profile.Snapshot, *RunStats) {
	t.Helper()
	image := phasedImage(t, iters, boundary, earlyBias, lateBias)
	return func(cfg Config) (*profile.Snapshot, *RunStats) {
		snap, stats, err := Run(image, interp.NewUniformTape("adaptive/ref"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snap, stats
	}
}

// phasedImage assembles phasedLooper's program.
func phasedImage(t testing.TB, iters, boundary, earlyBias, lateBias int32) *guest.Image {
	t.Helper()
	src := `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r7, ` + itoa(earlyBias) + `
	loadi r8, ` + itoa(lateBias) + `
	loadi r9, ` + itoa(boundary) + `
	loadi r10, ` + itoa(iters) + `
loop:
	blt r14, r9, early
	mov r6, r8
	jmp body
early:
	mov r6, r7
body:
	in r1
	blt r1, r6, taken
	addi r2, r2, 1
	jmp next
taken:
	addi r3, r3, 1
next:
	addi r14, r14, 1
	blt r14, r10, loop
	halt
`
	image, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return image
}

func TestAdaptiveDissolvesMisbehavingRegions(t *testing.T) {
	run := phasedLooper(t, 60000, 5000, 7782, 410) // p 0.95 -> 0.05
	fixedCfg := Config{Optimize: true, Threshold: 200, RegisterTwice: true}
	_, fixedStats := run(fixedCfg)
	if fixedStats.RegionsDissolved != 0 {
		t.Fatal("fixed mode must never dissolve regions")
	}

	adaptiveCfg := fixedCfg
	adaptiveCfg.Adaptive = true
	snap, stats := run(adaptiveCfg)
	if stats.RegionsDissolved == 0 {
		t.Fatal("adaptive mode never dissolved a region despite a phase flip")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-optimization must have happened: regions exist at the end.
	if len(snap.Regions) == 0 {
		t.Fatal("adaptive mode ended with no regions")
	}
}

func TestAdaptiveReducesSideExits(t *testing.T) {
	run := phasedLooper(t, 80000, 4000, 7782, 410)
	base := Config{Optimize: true, Threshold: 200, RegisterTwice: true}
	_, fixedStats := run(base)
	adaptive := base
	adaptive.Adaptive = true
	_, adaptiveStats := run(adaptive)
	// After the flip, the fixed translator's region exits sideways on
	// ~95% of entries forever; the adaptive translator rebuilds and
	// recovers.
	fixedRate := float64(fixedStats.RegionSideExits) / float64(fixedStats.RegionEntries+1)
	adaptiveRate := float64(adaptiveStats.RegionSideExits) / float64(adaptiveStats.RegionEntries+1)
	if adaptiveRate >= fixedRate {
		t.Fatalf("adaptive side-exit rate %.3f not below fixed %.3f", adaptiveRate, fixedRate)
	}
}

func TestAdaptiveImprovesPerformanceOnPhasedProgram(t *testing.T) {
	run := phasedLooper(t, 120000, 4000, 7782, 410)
	cycles := func(adaptive bool) float64 {
		cfg := Config{Optimize: true, Threshold: 200, RegisterTwice: true,
			Perf: perfmodel.NewAccumulator(perfmodel.DefaultParams())}
		cfg.Adaptive = adaptive
		_, stats := run(cfg)
		return stats.Cycles
	}
	fixed := cycles(false)
	adapt := cycles(true)
	if adapt >= fixed {
		t.Fatalf("adaptive cycles %v not below fixed %v on a phased program", adapt, fixed)
	}
}

func TestAdaptiveLeavesStationaryProgramsAlone(t *testing.T) {
	img := buildLooper(t, 50000, 7372) // stationary p=0.9
	snap, stats, err := Run(img, interp.NewUniformTape("looper/ref"), Config{
		Optimize: true, Threshold: 200, RegisterTwice: true, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RegionsDissolved != 0 {
		t.Fatalf("adaptive dissolved %d regions of a stationary program", stats.RegionsDissolved)
	}
	if len(snap.Regions) == 0 {
		t.Fatal("no regions on stationary program")
	}
}

func TestContinuousTripCountTracksAverage(t *testing.T) {
	// A geometric loop whose continuation probability flips 0.95 ->
	// 0.40 early: frozen counters predict 0.95, continuous collection
	// must land near the run average.
	src := `
.entry main
main:
	loadi r0, 0
	loadi r14, 0
	loadi r7, 7782
	loadi r8, 3277
	loadi r9, 3000
	loadi r10, 30000
loop:
	blt r14, r9, early
	mov r6, r8
	jmp body
early:
	mov r6, r7
body:
	in r1
	blt r1, r6, body
	addi r14, r14, 1
	blt r14, r10, loop
	halt
`
	img, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(continuous bool) *profile.Snapshot {
		snap, _, err := Run(img, interp.NewUniformTape("ctc/ref"), Config{
			Optimize: true, Threshold: 100, RegisterTwice: true,
			ContinuousTripCount: continuous,
		})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	frozen := run(false)
	cont := run(true)

	lpOf := func(s *profile.Snapshot) (float64, bool) {
		for _, r := range s.Regions {
			if r.Kind == profile.RegionLoop {
				if r.HasContinuousLP {
					return r.ContinuousLP, true
				}
				// Frozen single-block loop: LP = taken/use of entry.
				eb := r.EntryBlock()
				if eb.Use > 0 {
					return float64(eb.Taken) / float64(eb.Use), true
				}
			}
		}
		return 0, false
	}
	frozenLP, ok := lpOf(frozen)
	if !ok {
		t.Fatal("no loop region in frozen run")
	}
	contLP, ok := lpOf(cont)
	if !ok {
		t.Fatal("no continuous LP in continuous run")
	}
	if frozenLP < 0.9 {
		t.Fatalf("frozen LP = %v, expected the early phase's ~0.95", frozenLP)
	}
	// Average LP over the run sits well below the early-phase value the
	// frozen counters predict (early head visits dominate the count but
	// the late phase pulls the mix down).
	if contLP >= frozenLP-0.1 {
		t.Fatalf("continuous LP = %v, want visibly below frozen %v", contLP, frozenLP)
	}
	if math.IsNaN(contLP) || contLP < 0.4 {
		t.Fatalf("continuous LP = %v, implausible for this mix", contLP)
	}
}
