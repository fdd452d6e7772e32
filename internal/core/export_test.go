package core

// Guest programs shared with the external core_test package, which
// holds the serial oracle (it imports spec, and spec imports core).
var (
	CounterProgram = counterProgram
	PhasedSrc      = phasedSrc
)
