package sched

import (
	"slices"

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
// deadline, keeping the scheduler model-compliant for arbitrary automata:
// the force-complete pass runs only in a slot where some live instance has
// Start + Fack < fire + Fprog (fire is the slot's last tick), so it cannot
// survive another slot, and there it delivers every such instance to each
// reliable receiver it contends for but did not win. FMMB never reaches
// that pass, because it aborts every broadcast at its slot's end.
//
// Each slot is one pass over the live instances' rows: every undelivered
// slot becomes a contender of its receiver, carrying the slot and its
// reliability bit, read once there, and each receiver's list records
// whether any contender is reliable; the winner is delivered by its slot.
type Slot struct {
	// GreyP is the delivery probability when only unreliable senders
	// contend. The zero value selects the default 0.5; negative values
	// select 0 (grey links never fire without reliable contention).
	GreyP float64

	// greyP is GreyP with defaults resolved; Attach recomputes it without
	// mutating the configured field, so re-attachment is idempotent.
	greyP float64

	api       mac.API
	live      []*mac.Instance
	armed     []sim.Time // fire ticks of the pending slot handlers
	receivers []receiver // per-node contender lists, kept across slots
}

// contender is a live instance competing for a receiver: the receiver's
// slot in the instance's G′ row and that slot's reliability bit.
type contender struct {
	b        *mac.Instance
	slot     int32
	reliable bool
}

// receiver is one node's contender list for the current slot and whether
// any of its contenders is reliable.
type receiver struct {
	cs       []contender
	reliable bool
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

// Attach implements mac.Scheduler. The live set, armed ticks and contender
// scratch keep their capacity across attachments.
func (s *Slot) Attach(api mac.API) {
	s.api = api
	s.armed = s.armed[:0]
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

// armSlot arms the handler of the current slot, which fires at the slot's
// last tick. That tick is never before now, so a broadcast made at a slot's
// last tick after that slot's handler ran re-arms a handler at the same
// tick, which serves it within the slot: BMMB re-broadcasting from an ack
// inside handleSlot does this.
//
//amac:hotpath
func (s *Slot) armSlot() {
	fprog := s.api.Fprog()
	s.arm((s.api.Now()/fprog+1)*fprog - 1)
}

// arm posts the slot handler for tick fire unless one is already pending
// there. At most a few handlers are ever pending, so armed is a short list.
//
//amac:hotpath
func (s *Slot) arm(fire sim.Time) {
	if slices.Contains(s.armed, fire) {
		return
	}
	s.armed = append(s.armed, fire)
	s.api.ScheduleTimer(fire, nil, int64(fire), 0)
}

// OnTimer implements mac.TimerScheduler: the end-of-slot handler.
func (s *Slot) OnTimer(_ any, a, _ int64) {
	fire := sim.Time(a)
	if i := slices.Index(s.armed, fire); i >= 0 {
		s.armed = slices.Delete(s.armed, i, i+1)
	}
	s.handleSlot(fire)
}

// handleSlot performs all deliveries and acks for the slot ending just
// after fire.
//
//amac:hotpath
func (s *Slot) handleSlot(fire sim.Time) {
	api := s.api
	rng := api.Rand()
	fack, fprog := api.Fack(), api.Fprog()

	// Compact the live set, dropping terminated instances, and note whether
	// any survivor is due for force-completion this slot.
	live := s.live[:0]
	late := false
	for _, b := range s.live {
		if b.Term == mac.Active {
			live = append(live, b)
			late = late || b.Start+fack < fire+fprog
		}
	}
	s.live = live

	// Per-receiver contender lists, drawn from the pooled scratch so a warm
	// slot allocates nothing once the lists have grown. One walk of each
	// live row reads every undelivered slot's reliability bit.
	n := api.Dual().N()
	if cap(s.receivers) < n {
		s.receivers = make([]receiver, n) //lint:hotalloc lazy grow: sized once per network size, then reused slot after slot
	}
	rcv := s.receivers[:n]
	for j := range rcv {
		rcv[j].cs = rcv[j].cs[:0]
		rcv[j].reliable = false
	}
	for _, b := range s.live {
		for i, j := range b.Neighbors() {
			if !b.SlotDelivered(i) {
				rel := b.SlotReliable(i)
				r := &rcv[j]
				r.cs = append(r.cs, contender{b, int32(i), rel})
				r.reliable = r.reliable || rel
			}
		}
	}

	for j := range rcv {
		r := &rcv[j]
		if len(r.cs) == 0 || !r.reliable && rng.Float64() >= s.greyP {
			continue
		}
		pick := r.cs[rng.Intn(len(r.cs))]
		api.Deliver(pick.b, int(pick.slot))
		if !late {
			continue
		}
		// Deadline enforcement for lingering instances: force-complete any
		// reliable contender that cannot survive another slot.
		for _, c := range r.cs {
			if c.b != pick.b && c.reliable && c.b.Start+fack < fire+fprog {
				api.Deliver(c.b, int(c.slot))
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
		s.arm(fire + fprog)
	}
}
