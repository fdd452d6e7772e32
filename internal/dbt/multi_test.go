package dbt

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

// multiConfigs is a configuration spread covering every profiling mode
// RunMulti must replay faithfully: AVEP, a threshold ladder, freezing
// off, register-twice off, adaptive dissolution, continuous trip counts,
// convergence-based registration, a generic-dispatch follower (its
// fast/generic split differs from the driver's) and sampled profiling.
func multiConfigs(perf bool) []Config {
	cfgs := []Config{
		{Input: "ref", Optimize: false},
		{Input: "ref", Optimize: true, Threshold: 5, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 200, RegisterTwice: true},
		{Input: "ref", Optimize: true, Threshold: 40},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, DisableFreeze: true},
		{Input: "ref", Optimize: true, Threshold: 25, RegisterTwice: true, Adaptive: true, AdaptiveMinEntries: 16},
		{Input: "ref", Optimize: true, Threshold: 25, RegisterTwice: true, ContinuousTripCount: true},
		{Input: "ref", Optimize: true, Threshold: 500, RegisterTwice: true, ConvergeRegister: true},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, DisableFastPath: true},
		{Input: "ref", Optimize: true, Threshold: 40, RegisterTwice: true, SamplePeriod: 4, SampleSeed: 9},
	}
	if perf {
		for i := range cfgs {
			cfgs[i].Perf = perfmodel.NewAccumulator(perfmodel.DefaultParams())
		}
	}
	return cfgs
}

func snapEqual(t *testing.T, label string, got, want *profile.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: RunMulti snapshot differs from serial run\n got: %+v\nwant: %+v", label, got, want)
	}
}

// accDiff reports the first field in which two perf accumulators are
// not bit-identical ("" when they all are): every float64 tally by
// math.Float64bits, so -0 vs 0 or a missed flush of any one tally shows.
func accDiff(got, want *perfmodel.Accumulator) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("accumulator %v vs %v", got, want)
		}
		return ""
	}
	if got.Params() != want.Params() {
		return "params differ"
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Kind() != reflect.Float64 {
			continue
		}
		g, w := gv.Field(i).Float(), wv.Field(i).Float()
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s %v != %v", gv.Type().Field(i).Name, g, w)
		}
	}
	return ""
}

// TestRunMultiMatchesSerialRuns is the core contract: each follower of a
// shared-trace run must produce bit-for-bit the snapshot, statistics and
// every perf-model tally of a serial run with the same configuration
// over an identical tape. The phased program flips its hot branch, so
// the adaptive follower dissolves regions there.
func TestRunMultiMatchesSerialRuns(t *testing.T) {
	for _, prog := range []struct {
		name     string
		img      *guest.Image
		dissolve bool
	}{
		{"looper", buildLooper(t, 4000, 2400), false},
		{"phased", phasedImage(t, 20000, 5000, 7782, 410), true},
	} {
		cfgs := multiConfigs(true)
		snaps, stats, err := RunMulti(prog.img, interp.NewUniformTape("multi/ref"), cfgs)
		if err != nil {
			t.Fatalf("%s: RunMulti: %v", prog.name, err)
		}
		dissolved := 0
		for i, cfg := range multiConfigs(true) {
			wantSnap, wantStats, err := Run(prog.img, interp.NewUniformTape("multi/ref"), cfg)
			if err != nil {
				t.Fatalf("%s: serial run %d: %v", prog.name, i, err)
			}
			snapEqual(t, prog.name, snaps[i], wantSnap)
			if !reflect.DeepEqual(stats[i], wantStats) {
				t.Errorf("%s config %d: stats differ\n got: %+v\nwant: %+v", prog.name, i, stats[i], wantStats)
			}
			if diff := accDiff(cfgs[i].Perf, cfg.Perf); diff != "" {
				t.Errorf("%s config %d: perf accumulator differs: %s", prog.name, i, diff)
			}
			dissolved += wantStats.RegionsDissolved
		}
		if prog.dissolve && dissolved == 0 {
			t.Errorf("%s: no configuration dissolved a region", prog.name)
		}
	}
}

// TestRunMultiDriverPathsAgree cross-validates the two execution paths
// of the shared trace: a fast-path driver and a generic-dispatch driver
// must hand every follower the same outcomes.
func TestRunMultiDriverPathsAgree(t *testing.T) {
	img := buildLooper(t, 2000, 4000)
	fastSnaps, _, err := RunMulti(img, interp.NewUniformTape("multi/x"), multiConfigs(false))
	if err != nil {
		t.Fatalf("fast RunMulti: %v", err)
	}
	slowCfgs := multiConfigs(false)
	slowCfgs[0].DisableFastPath = true
	slowSnaps, _, err := RunMulti(img, interp.NewUniformTape("multi/x"), slowCfgs)
	if err != nil {
		t.Fatalf("generic RunMulti: %v", err)
	}
	for i := range fastSnaps {
		snapEqual(t, "driver-path", fastSnaps[i], slowSnaps[i])
	}
}

// TestRunMultiBudget: a follower's block budget or injected trap aborts
// the whole shared run with exactly the error a serial run of that
// configuration reports — including stops in the middle of a replay
// batch and a trap that fires before a looser budget.
func TestRunMultiBudget(t *testing.T) {
	img := buildLooper(t, 4000, 4000)
	for _, stop := range []Config{
		{MaxBlockExecs: 50},
		{MaxBlockExecs: 2500, TrapAfter: 6000},
		{MaxBlockExecs: 5000, TrapAfter: 3000},
		{MaxBlockExecs: 9000, TrapAfter: 6100},
	} {
		follower := Config{Input: "ref", Optimize: true, Threshold: 10, RegisterTwice: true,
			MaxBlockExecs: stop.MaxBlockExecs, TrapAfter: stop.TrapAfter}
		_, _, want := Run(img, interp.NewUniformTape("multi/b"), follower)
		if want == nil {
			t.Fatalf("serial run with budget %d, trap %d did not stop", stop.MaxBlockExecs, stop.TrapAfter)
		}
		_, _, err := RunMulti(img, interp.NewUniformTape("multi/b"), []Config{{Input: "ref"}, follower})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("budget %d, trap %d: RunMulti error %v, serial run %v", stop.MaxBlockExecs, stop.TrapAfter, err, want)
		}
	}
}

func TestRunMultiRejectsEmptyConfigs(t *testing.T) {
	img := buildLooper(t, 10, 10)
	if _, _, err := RunMulti(img, interp.NewUniformTape("x"), nil); err == nil {
		t.Fatalf("RunMulti accepted empty config list")
	}
}
