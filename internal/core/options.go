package core

import (
	"errors"
	"fmt"

	"amac/internal/sim"
)

// TraceMode selects how a run records its execution trace.
type TraceMode int

const (
	// TraceMemory (the default) keeps the full trace in memory on
	// Result.Trace.
	TraceMemory TraceMode = iota
	// TraceStream appends every event to RunOptions.Sink and keeps no
	// trace on the Result — the path for networks whose trace cannot be
	// held in RAM (pair with a sim.TraceWriter). The single-engine
	// executor appends each event as it happens; the decomposed executor
	// holds each component's events in a sim.Trace of its own, 40 bytes
	// an event, until sim.MergeTraces feeds them to the sink in order.
	TraceStream
	// TraceOff disables trace recording entirely — the throughput fast
	// path: the engine builds no MAC-level event (bcast, rcv, ack, abort),
	// while the runner's completion watcher still observes the arrive and
	// deliver events it counts.
	TraceOff
)

// String returns the scenario-JSON spelling of the mode.
func (m TraceMode) String() string {
	switch m {
	case TraceMemory:
		return "memory"
	case TraceStream:
		return "stream"
	case TraceOff:
		return "off"
	default:
		return fmt.Sprintf("TraceMode(%d)", int(m))
	}
}

// ParseTraceMode parses the scenario-JSON spelling of a trace mode.
func ParseTraceMode(s string) (TraceMode, error) {
	switch s {
	case "", "memory":
		return TraceMemory, nil
	case "stream":
		return TraceStream, nil
	case "off":
		return TraceOff, nil
	default:
		return 0, fmt.Errorf("unknown trace mode %q (want memory, stream, or off)", s)
	}
}

// RunOptions is the unified observation/verification/parallelism block of a
// RunConfig. It replaces the former NoTrace/Sink/Check trio whose
// interactions were silent-precedence prose; illegal combinations now fail
// validation with descriptive errors instead of being quietly reinterpreted.
type RunOptions struct {
	// Trace selects memory (default), stream, or off.
	Trace TraceMode
	// Sink receives every trace event when Trace is TraceStream. Required
	// then, forbidden otherwise.
	Sink sim.TraceSink
	// Check verifies the execution against the abstract MAC layer
	// guarantees after the run (check.All over the recorded instances, in
	// any trace mode). The MMB correctness conditions need no option: the
	// runner enforces them online on every run (Result.MMBViolations).
	Check bool
	// Shards enables the decomposed executor: the network is carved into
	// G′-component shards, each run on its own engine, with at most Shards
	// of them executing concurrently. 0 (the default) keeps the
	// single-engine executor; any value ≥ 1 selects decomposed semantics,
	// whose output is a pure function of the configuration — byte-identical
	// at every shard count. A connected network degenerates to the
	// single-engine execution, so for those the two semantics coincide
	// exactly.
	Shards int
}

// Validate reports the first illegal combination, or nil.
func (o RunOptions) Validate() error {
	if o.Trace < TraceMemory || o.Trace > TraceOff {
		return fmt.Errorf("core: invalid trace mode %d", int(o.Trace))
	}
	if o.Trace == TraceStream && o.Sink == nil {
		return errors.New("core: Trace=stream requires a Sink")
	}
	if o.Trace != TraceStream && o.Sink != nil {
		return fmt.Errorf("core: Sink set but Trace=%s (only Trace=stream streams to a sink)", o.Trace)
	}
	if o.Shards < 0 {
		return fmt.Errorf("core: negative Shards %d", o.Shards)
	}
	return nil
}
