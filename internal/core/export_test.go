package core

import (
	"strings"
	"testing"
)

// Guest programs and cache-test helpers shared with the external core_test package, which
// holds the serial oracle (it imports spec, and spec imports core).
var (
	CounterProgram = counterProgram
	PhasedSrc      = phasedSrc
	CopyCache      = copyCache
)

// EntryKind returns the kind and t fields of a result-cache entry
// file's key, read from its header line. The fields before the engine
// component hold no '|'.
func EntryKind(t *testing.T, path string) (kind, tField string) {
	t.Helper()
	h, _ := readEntryFile(t, path)
	// v<schema>|kind=..|bench=..|ctx=..|img=..|tape=..|t=..|engine=..
	f := strings.SplitN(h.Key, "|", 8)
	return strings.TrimPrefix(f[1], "kind="), strings.TrimPrefix(f[6], "t=")
}

// ForgeBPEntry perturbs the first cached predictor tally in dir under a
// valid checksum, so the store serves it as a hit.
func ForgeBPEntry(t *testing.T, dir string) {
	t.Helper()
	var v bpEntry
	forgeEntry(t, dir, "bp", &v, func() { v.Results[0].Mispredicts++ })
}
