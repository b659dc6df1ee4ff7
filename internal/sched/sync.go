package sched

import (
	"fmt"

	"amac/internal/mac"
	"amac/internal/sim"
)

// Sync is the deterministic benign scheduler: every G-neighbor receives a
// broadcast exactly RecvDelay after it starts, selected unreliable
// neighbors receive it GreyDelay after it starts, and the ack fires
// AckDelay after it starts. Defaults (zero values) are RecvDelay = Fprog,
// GreyDelay = RecvDelay, AckDelay = Fack — i.e. receives as late as the
// progress bound allows and acks as late as the acknowledgment bound
// allows, which is the worst legal behavior for pipelined flooding and
// exactly the regime the paper's upper bounds are stated against.
type Sync struct {
	// RecvDelay is the bcast→rcv latency on reliable edges. Must be in
	// [1, Fprog]; 0 selects Fprog.
	RecvDelay sim.Time
	// GreyDelay is the bcast→rcv latency on unreliable edges. Must be in
	// [1, AckDelay]; 0 selects RecvDelay.
	GreyDelay sim.Time
	// AckDelay is the bcast→ack latency. Must be in [RecvDelay, Fack];
	// 0 selects Fack.
	AckDelay sim.Time
	// Rel selects which unreliable links fire; nil means Never.
	Rel Reliability

	api mac.API
}

var (
	_ mac.Scheduler = (*Sync)(nil)
	_ Resettable    = (*Sync)(nil)
)

// Name implements mac.Scheduler.
func (s *Sync) Name() string {
	rel := "never"
	if s.Rel != nil {
		rel = s.Rel.Name()
	}
	return "sync(rel=" + rel + ")"
}

// resolveDelays returns the delays with defaults filled from the model
// constants, or an error when a configured delay is out of range. It is the
// single source of truth for both Attach (panic on violation) and the
// registry factory (error on violation).
func (s *Sync) resolveDelays(fprog, fack sim.Time) (recv, grey, ack sim.Time, err error) {
	recv, grey, ack = s.RecvDelay, s.GreyDelay, s.AckDelay
	if recv == 0 {
		recv = fprog
	}
	if ack == 0 {
		ack = fack
	}
	if grey == 0 {
		grey = recv
	}
	switch {
	case recv < 1 || recv > fprog:
		return 0, 0, 0, fmt.Errorf("sched: sync recv-delay %d outside [1, fprog=%d]", recv, fprog)
	case ack < recv || ack > fack:
		return 0, 0, 0, fmt.Errorf("sched: sync ack-delay %d outside [recv-delay=%d, fack=%d]", ack, recv, fack)
	case grey < 1 || grey > ack:
		return 0, 0, 0, fmt.Errorf("sched: sync grey-delay %d outside [1, ack-delay=%d]", grey, ack)
	}
	return recv, grey, ack, nil
}

// Reset implements Resettable: Sync keeps no cross-run state of its own
// (Attach re-resolves the delays idempotently), so re-arming only validates
// the delays against the new model constants and resets the reliability
// policy.
func (s *Sync) Reset(env Env) bool {
	if env.Fprog > 0 && env.Fack > 0 {
		if _, _, _, err := s.resolveDelays(env.Fprog, env.Fack); err != nil {
			return false
		}
	}
	resetRel(s.Rel)
	return true
}

// Attach implements mac.Scheduler, resolving defaulted delays.
func (s *Sync) Attach(api mac.API) {
	recv, grey, ack, err := s.resolveDelays(api.Fprog(), api.Fack())
	if err != nil {
		panic(err)
	}
	s.api = api
	s.RecvDelay, s.GreyDelay, s.AckDelay = recv, grey, ack
}

// OnBcast implements mac.Scheduler. Scheduling cost is O(1) typed events
// and zero closures per broadcast: one batched delivery event covers the
// whole reliable neighborhood, one the selected grey targets, and one the
// ack. Per-neighbor delivery order within a batch matches the per-neighbor
// events the scheduler originally enqueued (neighbor order, then
// grey-selection order), so executions are unchanged.
//
//amac:hotpath
func (s *Sync) OnBcast(b *mac.Instance) {
	api := s.api
	now := api.Now()
	api.ScheduleReliableDeliveries(now+s.RecvDelay, b)
	// Grey targets are drawn now (one Rel consultation per candidate at
	// broadcast time, preserving the random stream) but delivered at
	// GreyDelay.
	if grey := greyTargets(api, b, s.Rel); len(grey) > 0 {
		api.ScheduleGreyDeliveries(now+s.GreyDelay, b, grey)
	}
	api.ScheduleAck(now+s.AckDelay, b)
}

// OnAbort implements mac.Scheduler. Pending deliveries self-cancel via the
// Term check.
func (s *Sync) OnAbort(*mac.Instance) {}
