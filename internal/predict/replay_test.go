package predict_test

import (
	"reflect"
	"testing"

	"repro/internal/dbt"
	"repro/internal/predict"
	"repro/internal/spec"
)

// suiteObserver mirrors the observer of internal/core's bp consumer: one Record per
// resolved branch, in architectural order.
type suiteObserver struct{ suite *predict.Suite }

func (o suiteObserver) ObserveBranches(evs []dbt.BranchEvent) {
	for _, ev := range evs {
		o.suite.Record(ev.PC, ev.Taken)
	}
}

// observedRun executes one benchmark's reference input at the given
// scale with every registered predictor observing, and returns the
// tallies.
func observedRun(t *testing.T, b *spec.Benchmark, scale float64, cfg dbt.Config) []predict.Result {
	t.Helper()
	img, tape, err := b.Target(scale).Build("ref")
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	suite, err := predict.NewSuite(predict.Names())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Input = "ref"
	_, _, err = dbt.RunMultiObserved(img, tape, []dbt.Config{cfg}, []dbt.TraceObserver{suiteObserver{suite}})
	if err != nil {
		t.Fatalf("%s: run: %v", b.Name, err)
	}
	return suite.Results()
}

// TestReplayDeterminismAcrossDispatchPaths pins the core determinism
// invariant of the predictor layer: the observed branch stream — and
// with it every predictor's mispredict count — is bit-identical
// between the pre-lowered fast path and the generic interp dispatch,
// across the full spec suite.
func TestReplayDeterminismAcrossDispatchPaths(t *testing.T) {
	const scale = 0.001
	for _, b := range spec.Suite() {
		fast := observedRun(t, b, scale, dbt.Config{})
		generic := observedRun(t, b, scale, dbt.Config{DisableFastPath: true})
		if !reflect.DeepEqual(fast, generic) {
			t.Errorf("%s: predictor tallies diverge between dispatch paths:\nfast:    %+v\ngeneric: %+v", b.Name, fast, generic)
		}
		if fast[0].Branches == 0 {
			t.Errorf("%s: observed no branches; the spec benchmarks all contain branch sites", b.Name)
		}
	}
}

// TestReplayIndependentOfFollowerCount pins that adding follower
// configurations (the shared-trace INIP ladder) does not change what
// observers see: the driver's trace is the only source.
func TestReplayIndependentOfFollowerCount(t *testing.T) {
	const scale = 0.001
	b := spec.ByName("gzip")
	if b == nil {
		t.Fatal("gzip missing from suite")
	}
	run := func(cfgs []dbt.Config) []predict.Result {
		// Tapes are stateful streams: build a fresh image+tape pair per
		// run so both runs replay the identical input.
		img, tape, err := b.Target(scale).Build("ref")
		if err != nil {
			t.Fatal(err)
		}
		suite, err := predict.NewSuite(predict.Names())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dbt.RunMultiObserved(img, tape, cfgs, []dbt.TraceObserver{suiteObserver{suite}}); err != nil {
			t.Fatal(err)
		}
		return suite.Results()
	}
	single := run([]dbt.Config{{Input: "ref"}})
	ladder := run([]dbt.Config{
		{Input: "ref"},
		{Input: "ref", Threshold: 2, Optimize: true},
		{Input: "ref", Threshold: 100, Optimize: true},
	})
	if !reflect.DeepEqual(single, ladder) {
		t.Errorf("tallies depend on follower count:\nsingle: %+v\nladder: %+v", single, ladder)
	}
}
