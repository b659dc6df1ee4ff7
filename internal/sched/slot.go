package sched

import (
	"amac/internal/mac"
	"amac/internal/sim"
)

// Slot is the globally slot-synchronous scheduler for the enhanced abstract
// MAC layer: virtual time is divided into slots of length Fprog and, one
// tick before each slot ends, every receiver with at least one contending
// broadcast obtains exactly one message:
//
//   - If some contender comes from a reliable (G) neighbor, a delivery is
//     mandatory (the progress bound) and the winner is chosen uniformly at
//     random among all contenders — so a grey-zone interferer can displace
//     the reliable message, which is exactly the collision behavior FMMB's
//     analysis defends against.
//   - If all contenders come from unreliable (G′\G) neighbors, the delivery
//     happens with probability GreyP (unreliability).
//
// Instances whose reliable neighborhood is fully served are acked in the
// same tick; anything else is expected to be aborted by its sender at the
// slot boundary (FMMB does exactly that). Instances that linger anyway are
// carried into following slots and force-completed before their Fack
// deadline, keeping the scheduler model-compliant for arbitrary automata.
type Slot struct {
	// GreyP is the delivery probability when only unreliable senders
	// contend. The zero value selects the default 0.5; negative values
	// select 0 (grey links never fire without reliable contention).
	GreyP float64

	// greyP is GreyP with defaults resolved; Attach recomputes it without
	// mutating the configured field, so re-attachment is idempotent.
	greyP float64

	api        mac.API
	live       []*mac.Instance
	armed      map[sim.Time]bool
	contenders [][]*mac.Instance
}

var (
	_ mac.Scheduler      = (*Slot)(nil)
	_ mac.TimerScheduler = (*Slot)(nil)
	_ Resettable         = (*Slot)(nil)
)

// Name implements mac.Scheduler.
func (s *Slot) Name() string { return "slot" }

// Reset implements Resettable: all per-run state is re-initialized by
// Attach, which reuses its capacity.
func (s *Slot) Reset(Env) bool { return true }

// Attach implements mac.Scheduler. The live set, slot map and contender
// scratch keep their capacity across attachments.
func (s *Slot) Attach(api mac.API) {
	s.api = api
	if s.armed == nil {
		s.armed = make(map[sim.Time]bool)
	} else {
		clear(s.armed)
	}
	for i := range s.live {
		s.live[i] = nil
	}
	s.live = s.live[:0]
	switch {
	case s.GreyP < 0:
		s.greyP = 0
	case s.GreyP == 0:
		s.greyP = 0.5
	default:
		s.greyP = s.GreyP
	}
}

// OnBcast implements mac.Scheduler.
//
//amac:hotpath
func (s *Slot) OnBcast(b *mac.Instance) {
	s.live = append(s.live, b)
	s.armSlot()
}

// OnAbort implements mac.Scheduler. Aborted instances drop out of the live
// set lazily at the next slot handler.
func (s *Slot) OnAbort(*mac.Instance) {}

// armSlot schedules the end-of-slot handler for the current slot if not
// already armed.
//
//amac:hotpath
func (s *Slot) armSlot() {
	fprog := s.api.Fprog()
	now := s.api.Now()
	slot := now / fprog
	fire := (slot+1)*fprog - 1
	if fire < now {
		// We are exactly at the last tick of a slot; serve next slot.
		fire += fprog
	}
	if s.armed[fire] {
		return
	}
	s.armed[fire] = true
	s.api.ScheduleTimer(fire, nil, int64(fire), 0)
}

// OnTimer implements mac.TimerScheduler: the end-of-slot handler.
func (s *Slot) OnTimer(_ any, a, _ int64) {
	fire := sim.Time(a)
	delete(s.armed, fire)
	s.handleSlot(fire)
}

// handleSlot performs all deliveries and acks for the slot ending just
// after fire.
//
//amac:hotpath
func (s *Slot) handleSlot(fire sim.Time) {
	api := s.api
	d := api.Dual()
	rng := api.Rand()

	// Compact the live set, dropping terminated instances.
	live := s.live[:0]
	for _, b := range s.live {
		if b.Term == mac.Active {
			live = append(live, b)
		}
	}
	s.live = live

	// Per-receiver contender sets, drawn from the pooled scratch so a warm
	// slot allocates nothing once the per-receiver slices have grown.
	n := d.N()
	if cap(s.contenders) < n {
		s.contenders = make([][]*mac.Instance, n) //lint:hotalloc lazy grow: sized once per network size, then reused slot after slot
	}
	contenders := s.contenders[:n]
	for j := range contenders {
		contenders[j] = contenders[j][:0]
	}
	for _, b := range s.live {
		for _, j := range d.GPrime.Neighbors(b.Sender) {
			if b.WasDelivered(j) {
				continue
			}
			contenders[j] = append(contenders[j], b)
		}
	}

	for j := 0; j < n; j++ {
		cs := contenders[j]
		if len(cs) == 0 {
			continue
		}
		reliable := false
		for _, b := range cs {
			if d.G.HasEdge(b.Sender, mac.NodeID(j)) {
				reliable = true
				break
			}
		}
		if !reliable && rng.Float64() >= s.greyP {
			continue
		}
		pick := cs[rng.Intn(len(cs))]
		api.Deliver(pick, mac.NodeID(j))

		// Deadline enforcement for lingering instances: force-complete any
		// contender that cannot survive another slot.
		for _, b := range cs {
			if b == pick {
				continue
			}
			if d.G.HasEdge(b.Sender, mac.NodeID(j)) && b.Start+api.Fack() < fire+api.Fprog() {
				api.Deliver(b, mac.NodeID(j))
			}
		}
	}

	// Ack every live instance whose reliable neighborhood is served.
	for _, b := range s.live {
		if b.Term == mac.Active && b.AllReliableDelivered() {
			api.Ack(b)
		}
	}

	// Keep the cadence while anything lives on.
	hasActive := false
	for _, b := range s.live {
		if b.Term == mac.Active {
			hasActive = true
			break
		}
	}
	if hasActive {
		next := fire + api.Fprog()
		if !s.armed[next] {
			s.armed[next] = true
			s.api.ScheduleTimer(next, nil, int64(next), 0)
		}
	}
}
