// Package faultinject provides deterministic fault injection for the
// study pipeline: a Plan of armed failure sites, parsed from a compact
// spec string, that the executor consults at well-defined points — the
// build cache before invoking a target builder, the translator config
// (a guest trap at the Nth dynamic block, see dbt.Config.TrapAfter),
// and the scheduler's unit wrapper (a delay or a panic at a chosen
// (bench, unit, T) site).
//
// Every fault is deterministic: it fires at an exact, configured point,
// the same way on every run, so the executor's failure paths — retry,
// degrade, checkpoint/resume — are exercised by reproducible tests
// instead of being trusted. A fault may be bounded ("*k": fire k times,
// then disarm), which is how transient failures are modelled for the
// retry machinery. The only randomness is the explicit seed entry,
// which derives unspecified trap points ("trap:gzip@auto") from a
// fixed-seed generator, keeping even "random" faults reproducible.
//
// Spec grammar (comma-separated entries):
//
//	build:<bench>[/<input>][*<k>]        fail the target build
//	trap:<bench>[/<input>]@<n|auto>[*<k>] guest trap at the Nth block
//	slow:<bench>/<unit>[@<T>]:<dur>[*<k>] delay the unit by <dur>
//	panic:<bench>/<unit>[@<T>][*<k>]     panic inside the unit
//	seed:<n>                             seed for @auto points
//
// <bench> is a benchmark name or "*" (any); <input> is "ref" or
// "train" (default: any); <unit> is a pipeline unit name (ref, train,
// compare, train_compare) or "*"; <T> is an effective retranslation
// threshold (default: any).
//
// Network faults target the fleet protocol's HTTP calls (see
// internal/fleet): the client consults the plan once per call, keyed
// by endpoint name (lease, heartbeat, complete, or "*"):
//
//	net:drop:<endpoint>[@<n|auto>][*<k>]      response lost after delivery
//	net:delay:<endpoint>[@<n|auto>]:<dur>[*<k>] delay the call by <dur>
//	net:dup:<endpoint>[@<n|auto>][*<k>]       send the request twice
//	net:sever:<endpoint>[@<n|auto>][*<k>]     partition: call never sent
//
// @<n> arms the fault at the Nth matching call (default: the first);
// @auto derives the point from the seed. drop models a lost response —
// the server processed the request, the caller sees a failure (the
// sharp case for completion idempotency); sever models a partition —
// the request is never delivered, persistently from its armed point on
// unless bounded with *<k>.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Kind enumerates the failure modes a fault can arm.
type Kind int

const (
	// KindBuild fails a target build in the build cache.
	KindBuild Kind = iota
	// KindTrap aborts guest execution at the Nth dynamic block.
	KindTrap
	// KindSlow delays a unit before its body runs.
	KindSlow
	// KindPanic panics inside a unit body.
	KindPanic
	// KindNetDrop loses the response of a fleet HTTP call after the
	// server has processed it.
	KindNetDrop
	// KindNetDelay delays a fleet HTTP call.
	KindNetDelay
	// KindNetDup sends a fleet HTTP request twice.
	KindNetDup
	// KindNetSever partitions an endpoint: calls are never delivered.
	KindNetSever
)

// netKind reports whether the kind is a fleet network fault.
func netKind(k Kind) bool {
	switch k {
	case KindNetDrop, KindNetDelay, KindNetDup, KindNetSever:
		return true
	}
	return false
}

// String names the kind as it appears in specs.
func (k Kind) String() string {
	switch k {
	case KindBuild:
		return "build"
	case KindTrap:
		return "trap"
	case KindSlow:
		return "slow"
	case KindPanic:
		return "panic"
	case KindNetDrop:
		return "net:drop"
	case KindNetDelay:
		return "net:delay"
	case KindNetDup:
		return "net:dup"
	case KindNetSever:
		return "net:sever"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one armed injection site.
type Fault struct {
	Kind Kind
	// Bench is the benchmark name the fault applies to ("*" = any).
	Bench string
	// Input restricts build/trap faults to one input ("" = any).
	Input string
	// Unit restricts slow/panic faults to one pipeline unit ("*" = any).
	Unit string
	// T restricts slow/panic faults to one effective threshold (0 = any).
	T uint64
	// Endpoint restricts net faults to one fleet endpoint ("*" = any).
	Endpoint string
	// N is the dynamic block count a trap fires at; for net faults it
	// is the 1-based matching-call index the fault arms at.
	N uint64
	// Delay is the slow/net-delay fault's injected latency.
	Delay time.Duration
	// Times is how many matches remain before the fault disarms
	// (negative = unlimited).
	Times int
	// calls counts matching fleet calls seen so far (net faults only),
	// so @<n> points fire at an exact call index.
	calls uint64
}

// autoTrapRange bounds @auto trap points: early enough to fire on
// tiny-scale runs, late enough that the run is demonstrably under way.
const autoTrapRange = 4096

// autoNetRange bounds @auto net fault points: fleet protocol calls per
// endpoint number in the handfuls, not the thousands.
const autoNetRange = 8

// Plan is a set of armed faults. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Plan injects nothing), so the
// executor needs no guards at its injection points.
type Plan struct {
	mu     sync.Mutex
	faults []*Fault
}

// Parse builds a plan from a spec string (see the package comment for
// the grammar). An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	seed := uint64(1)
	var autos, netAutos []*Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, body, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want <kind>:<site>", entry)
		}
		if kind == "seed" {
			n, err := strconv.ParseUint(body, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %q: bad seed: %v", entry, err)
			}
			seed = n
			continue
		}
		f := &Fault{Times: -1}
		// A trailing "*<digits>" bounds the fire count; a bare "*" is
		// the benchmark wildcard, so only an all-digit suffix counts.
		if head, times, ok := cutLast(body, "*"); ok && times != "" && !strings.ContainsFunc(times, func(r rune) bool { return r < '0' || r > '9' }) {
			k, err := strconv.Atoi(times)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("faultinject: %q: bad repeat count %q", entry, times)
			}
			f.Times = k
			body = head
		}
		var err error
		switch kind {
		case "build":
			f.Kind = KindBuild
			err = parseBuildSite(f, body)
		case "trap":
			f.Kind = KindTrap
			var auto bool
			if auto, err = parseTrapSite(f, body); auto {
				autos = append(autos, f)
			}
		case "slow":
			f.Kind = KindSlow
			site, dur, ok := cutLast(body, ":")
			if !ok {
				err = fmt.Errorf("missing duration (want <site>:<dur>)")
				break
			}
			if f.Delay, err = time.ParseDuration(dur); err != nil {
				break
			}
			err = parseUnitSite(f, site)
		case "panic":
			f.Kind = KindPanic
			err = parseUnitSite(f, body)
		case "net":
			var auto bool
			if auto, err = parseNetSite(f, body); auto {
				netAutos = append(netAutos, f)
			}
		default:
			err = fmt.Errorf("unknown kind %q", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: %q: %v", entry, err)
		}
		p.faults = append(p.faults, f)
	}
	// Seeded auto points: derived after the whole spec is read so the
	// seed entry's position does not matter. Trap and net points draw
	// from separate streams so adding a net fault never shifts an
	// existing plan's trap points.
	src := rng.New(seed)
	for _, f := range autos {
		f.N = uint64(src.Intn(autoTrapRange)) + 1
	}
	netSrc := rng.New(seed + 1)
	for _, f := range netAutos {
		f.N = uint64(netSrc.Intn(autoNetRange)) + 1
	}
	return p, nil
}

// parseNetSite parses "<op>:<endpoint>[@<n|auto>][:<dur>]" (the repeat
// suffix is already cut) and reports whether the call index must be
// derived from the seed.
func parseNetSite(f *Fault, body string) (auto bool, err error) {
	op, site, ok := strings.Cut(body, ":")
	if !ok {
		return false, fmt.Errorf("want net:<op>:<endpoint>")
	}
	switch op {
	case "drop":
		f.Kind = KindNetDrop
	case "delay":
		f.Kind = KindNetDelay
		head, dur, ok := cutLast(site, ":")
		if !ok {
			return false, fmt.Errorf("missing duration (want net:delay:<endpoint>:<dur>)")
		}
		if f.Delay, err = time.ParseDuration(dur); err != nil {
			return false, err
		}
		site = head
	case "dup":
		f.Kind = KindNetDup
	case "sever":
		f.Kind = KindNetSever
	default:
		return false, fmt.Errorf("unknown net op %q (want drop, delay, dup or sever)", op)
	}
	f.N = 1
	if head, at, ok := cutLast(site, "@"); ok {
		site = head
		if at == "auto" {
			auto = true
		} else {
			n, err := strconv.ParseUint(at, 10, 64)
			if err != nil || n == 0 {
				return false, fmt.Errorf("bad call index %q (want a positive count or auto)", at)
			}
			f.N = n
		}
	}
	if site == "" {
		return false, fmt.Errorf("missing endpoint name")
	}
	if err := checkName("endpoint name", site); err != nil {
		return false, err
	}
	if strings.ContainsAny(site, ":@/") {
		return false, fmt.Errorf("endpoint name %q may not contain %q", site, ":@/")
	}
	f.Endpoint = site
	return auto, nil
}

// cutLast splits s around the final occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// parseBuildSite parses "<bench>[/<input>]".
// checkName rejects "*" embedded in a site component: a bare "*" is
// the wildcard, and any other "*" would collide with the repeat-count
// suffix when the plan's canonical String form is re-parsed (an
// optional component rendered away can expose a trailing "*<digits>"
// of the name to the repeat cutter). It also rejects surrounding
// whitespace, which Parse trims from every entry: a name rendered at
// the edge of an entry would otherwise re-parse as a different name.
func checkName(what, name string) error {
	if name != "*" && strings.Contains(name, "*") {
		return fmt.Errorf("%s %q may not contain %q (a bare %q matches any)", what, name, "*", "*")
	}
	if strings.TrimSpace(name) != name {
		return fmt.Errorf("%s %q has surrounding whitespace", what, name)
	}
	return nil
}

func parseBuildSite(f *Fault, site string) error {
	f.Bench, f.Input, _ = strings.Cut(site, "/")
	if f.Bench == "" {
		return fmt.Errorf("missing benchmark name")
	}
	if err := checkName("benchmark name", f.Bench); err != nil {
		return err
	}
	if f.Input != "" && f.Input != "ref" && f.Input != "train" {
		return fmt.Errorf("unknown input %q (want ref or train)", f.Input)
	}
	return nil
}

// parseTrapSite parses "<bench>[/<input>]@<n|auto>" and reports whether
// the trap point must be derived from the seed.
func parseTrapSite(f *Fault, site string) (auto bool, err error) {
	site, at, ok := cutLast(site, "@")
	if !ok {
		return false, fmt.Errorf("missing trap point (want <bench>@<n>)")
	}
	if err := parseBuildSite(f, site); err != nil {
		return false, err
	}
	if at == "auto" {
		return true, nil
	}
	n, err := strconv.ParseUint(at, 10, 64)
	if err != nil || n == 0 {
		return false, fmt.Errorf("bad trap point %q (want a positive block count or auto)", at)
	}
	f.N = n
	return false, nil
}

// parseUnitSite parses "<bench>/<unit>[@<T>]".
func parseUnitSite(f *Fault, site string) error {
	if head, at, ok := cutLast(site, "@"); ok {
		t, err := strconv.ParseUint(at, 10, 64)
		if err != nil || t == 0 {
			return fmt.Errorf("bad threshold %q", at)
		}
		f.T = t
		site = head
	}
	bench, unit, ok := strings.Cut(site, "/")
	if !ok || bench == "" || unit == "" {
		return fmt.Errorf("want <bench>/<unit>")
	}
	if err := checkName("benchmark name", bench); err != nil {
		return err
	}
	if err := checkName("unit name", unit); err != nil {
		return err
	}
	f.Bench, f.Unit = bench, unit
	return nil
}

// String renders the armed faults for logs.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, 0, len(p.faults))
	for _, f := range p.faults {
		if netKind(f.Kind) {
			s := f.Kind.String() + ":" + f.Endpoint
			if f.N != 1 {
				s += fmt.Sprintf("@%d", f.N)
			}
			if f.Kind == KindNetDelay {
				s += ":" + f.Delay.String()
			}
			if f.Times >= 0 {
				s += fmt.Sprintf("*%d", f.Times)
			}
			parts = append(parts, s)
			continue
		}
		s := f.Kind.String() + ":" + f.Bench
		if f.Input != "" {
			s += "/" + f.Input
		}
		if f.Unit != "" {
			s += "/" + f.Unit
		}
		if f.T != 0 {
			s += fmt.Sprintf("@%d", f.T)
		}
		if f.Kind == KindTrap {
			s += fmt.Sprintf("@%d", f.N)
		}
		if f.Kind == KindSlow {
			s += ":" + f.Delay.String()
		}
		if f.Times >= 0 {
			s += fmt.Sprintf("*%d", f.Times)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the plan has no armed faults left.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Times != 0 {
			return false
		}
	}
	return true
}

// match finds the first armed fault of the kind accepted by ok and
// consumes one fire from its budget.
func (p *Plan) match(kind Kind, ok func(*Fault) bool) *Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Kind != kind || f.Times == 0 || !ok(f) {
			continue
		}
		if f.Times > 0 {
			f.Times--
		}
		return f
	}
	return nil
}

func matchBench(f *Fault, bench string) bool { return f.Bench == "*" || f.Bench == bench }
func matchInput(f *Fault, input string) bool { return f.Input == "" || f.Input == input }
func matchUnit(f *Fault, unit string) bool   { return f.Unit == "*" || f.Unit == unit }
func matchT(f *Fault, t uint64) bool         { return f.T == 0 || f.T == t }

// BuildError returns the injected build failure for (bench, input), or
// nil. The build cache consults it before invoking the target builder.
func (p *Plan) BuildError(bench, input string) error {
	f := p.match(KindBuild, func(f *Fault) bool { return matchBench(f, bench) && matchInput(f, input) })
	if f == nil {
		return nil
	}
	return fmt.Errorf("faultinject: build failure for %s/%s", bench, input)
}

// Trap returns the injected guest-trap block count for a run of
// (bench, input), if one is armed. The value feeds dbt.Config.TrapAfter.
func (p *Plan) Trap(bench, input string) (uint64, bool) {
	f := p.match(KindTrap, func(f *Fault) bool { return matchBench(f, bench) && matchInput(f, input) })
	if f == nil {
		return 0, false
	}
	return f.N, true
}

// Delay returns the injected latency for a unit at (bench, unit, t),
// or zero.
func (p *Plan) Delay(bench, unit string, t uint64) time.Duration {
	f := p.match(KindSlow, func(f *Fault) bool {
		return matchBench(f, bench) && matchUnit(f, unit) && matchT(f, t)
	})
	if f == nil {
		return 0
	}
	return f.Delay
}

// NetVerdict is the injected behavior for one fleet HTTP call: the
// fields compose (a call can be delayed and duplicated and have its
// response dropped), and the zero value means the call proceeds
// untouched.
type NetVerdict struct {
	// Drop: deliver the request but lose the response — the caller
	// sees a transport error after the server has processed the call.
	Drop bool
	// Delay the call by this much before sending.
	Delay time.Duration
	// Duplicate: send the request twice.
	Duplicate bool
	// Sever: the request is never delivered (partition).
	Sever bool
}

// NetCall consults the plan for one call to the named fleet endpoint
// and returns the injected behavior. Each armed net fault keeps its
// own per-fault count of matching calls: a fault fires from its @<n>
// point on, bounded by its *<k> budget (sever defaults to persistent —
// a partition, not a blip).
func (p *Plan) NetCall(endpoint string) NetVerdict {
	var v NetVerdict
	if p == nil {
		return v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if !netKind(f.Kind) || !(f.Endpoint == "*" || f.Endpoint == endpoint) {
			continue
		}
		f.calls++
		if f.calls < f.N || f.Times == 0 {
			continue
		}
		if f.Times > 0 {
			f.Times--
		}
		switch f.Kind {
		case KindNetDrop:
			v.Drop = true
		case KindNetDelay:
			v.Delay += f.Delay
		case KindNetDup:
			v.Duplicate = true
		case KindNetSever:
			v.Sever = true
		}
	}
	return v
}

// PanicMessage returns the message to panic with inside the unit at
// (bench, unit, t), if a panic fault is armed there.
func (p *Plan) PanicMessage(bench, unit string, t uint64) (string, bool) {
	f := p.match(KindPanic, func(f *Fault) bool {
		return matchBench(f, bench) && matchUnit(f, unit) && matchT(f, t)
	})
	if f == nil {
		return "", false
	}
	return fmt.Sprintf("faultinject: panic in %s/%s", bench, unit), true
}
