package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dbt"
	"repro/internal/guest"
	"repro/internal/interp"
)

// TestFailFastFirstErrorVerbatim: a failing unit must surface its error
// verbatim as the scheduler's first error, the benchmark's onDone must
// never fire, and no ThresholdResult may be partially recorded.
func TestFailFastFirstErrorVerbatim(t *testing.T) {
	boom := errors.New("the build exploded")
	bad := Target{
		Name: "failing",
		Build: func(input string) (*guest.Image, interp.Tape, error) {
			if input == "ref" {
				return nil, nil, boom
			}
			return BuildFromAsm("failing", counterProgram()).Build(input)
		},
	}
	s := NewScheduler(2)
	var doneCalls atomic.Int64
	b := scheduleBenchmark(s, bad, Options{Thresholds: []uint64{20, 50, 100}},
		func(*BenchmarkResult) { doneCalls.Add(1) })
	err := s.Wait()
	if err == nil {
		t.Fatal("Wait returned nil, want the build failure")
	}
	if want := "core: build failing/ref: the build exploded"; err.Error() != want {
		t.Fatalf("error not verbatim:\n got %q\nwant %q", err.Error(), want)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired despite failure")
	}
	// The reference unit failed before any comparison was spawned, so the
	// ladder slots must be untouched zero values — a failing study must
	// not leave half-written results behind.
	for i, tr := range b.out.Results {
		if !reflect.DeepEqual(tr, (ThresholdResult{})) {
			t.Fatalf("Results[%d] partially recorded after failure: %+v", i, tr)
		}
	}

	// Scheduling onto the already-failed scheduler drops every unit: no
	// result writes, no onDone, same first error.
	good := BuildFromAsm("late", counterProgram())
	late := scheduleBenchmark(s, good, Options{Thresholds: []uint64{20}},
		func(*BenchmarkResult) { doneCalls.Add(1) })
	if werr := s.Wait(); werr != err {
		t.Fatalf("first error replaced: %v", werr)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired for a benchmark scheduled after failure")
	}
	if late.out.AVEP != nil || !reflect.DeepEqual(late.out.Results[0], (ThresholdResult{})) {
		t.Fatal("dropped benchmark recorded results")
	}
}

// TestFailFastComparisonErrorVerbatim drives the deepest failure path —
// the training comparison, which runs inline in a run unit rather than
// as its own scheduled unit — and checks it reaches the scheduler
// verbatim without retiring the work item.
func TestFailFastComparisonErrorVerbatim(t *testing.T) {
	target := BuildFromAsm("cmpfail", counterProgram())
	img, tape, err := target.Build("ref")
	if err != nil {
		t.Fatal(err)
	}
	// An optimized snapshot carries regions, which navep rejects as an
	// average profile — the natural way to force a comparison error.
	optimized, _, err := dbt.Run(img, tape, dbt.Config{
		Input: "ref", Optimize: true, Threshold: 20, RegisterTwice: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(optimized.Regions) == 0 {
		t.Fatal("optimized run formed no regions; test premise broken")
	}
	trainTape, err := target.NewTape("train")
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := dbt.Run(img, trainTape, dbt.Config{Input: "train"})
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(1)
	var doneCalls atomic.Int64
	b := &benchRun{
		s:      s,
		t:      target,
		out:    &BenchmarkResult{Name: target.Name},
		onDone: func(*BenchmarkResult) { doneCalls.Add(1) },
	}
	b.out.AVEP = optimized
	b.avep = optimized
	b.train = train
	b.remaining = 1
	b.maybeCompareTrain(0)

	err = s.Wait()
	want := fmt.Sprintf("core: train comparison of cmpfail: navep: average profile must be unoptimized, has %d regions",
		len(optimized.Regions))
	if err == nil || err.Error() != want {
		t.Fatalf("error not verbatim:\n got %v\nwant %q", err, want)
	}
	if doneCalls.Load() != 0 {
		t.Fatal("onDone fired despite comparison failure")
	}
	b.mu.Lock()
	remaining := b.remaining
	b.mu.Unlock()
	if remaining != 1 {
		t.Fatalf("failed comparison retired a work item: remaining = %d", remaining)
	}
}
