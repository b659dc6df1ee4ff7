package sched_test

import (
	"slices"

	"amac/internal/mac"
	"amac/internal/sim"
)

// refSlot is the slot scheduler as it was before each slot became one pass
// (contenders carrying their reliability bit, deliveries by slot, and the
// force-complete pass only in slots where some live instance is due): its
// fields and methods are copied verbatim, the only edit being that its api
// is a nodeAPI, which delivers by receiver node as the engine's Deliver
// then did. FuzzSlotMatchesReference holds Slot to it.
type refSlot struct {
	// GreyP is the delivery probability when only unreliable senders
	// contend. The zero value selects the default 0.5; negative values
	// select 0 (grey links never fire without reliable contention).
	GreyP float64

	// greyP is GreyP with defaults resolved; Attach recomputes it without
	// mutating the configured field, so re-attachment is idempotent.
	greyP float64

	api        nodeAPI
	live       []*mac.Instance
	armed      []sim.Time // fire ticks of the pending slot handlers
	contenders [][]contender
}

// contender is a live instance competing for a receiver, with the
// receiver's slot in the instance's G′ row.
type contender struct {
	b    *mac.Instance
	slot int
}

// nodeAPI is mac.API with the delivery method refSlot was written against:
// by receiver node, whose slot it looks up in the sender's row, as
// Engine.Deliver did before it took the slot.
type nodeAPI struct{ mac.API }

func (a nodeAPI) Deliver(b *mac.Instance, to mac.NodeID) { a.API.Deliver(b, b.SlotOf(to)) }

var (
	_ mac.Scheduler      = (*refSlot)(nil)
	_ mac.TimerScheduler = (*refSlot)(nil)
)

// Name implements mac.Scheduler.
func (s *refSlot) Name() string { return "slot" }

// Attach implements mac.Scheduler. The live set, armed ticks and contender
// scratch keep their capacity across attachments.
func (s *refSlot) Attach(api mac.API) {
	s.api = nodeAPI{api}
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
func (s *refSlot) OnBcast(b *mac.Instance) {
	s.live = append(s.live, b)
	s.armSlot()
}

// OnAbort implements mac.Scheduler. Aborted instances drop out of the live
// set lazily at the next slot handler.
func (s *refSlot) OnAbort(*mac.Instance) {}

// armSlot arms the handler of the current slot, which fires at the slot's
// last tick. That tick is never before now, so a broadcast made at a slot's
// last tick after that slot's handler ran re-arms a handler at the same
// tick, which serves it within the slot: BMMB re-broadcasting from an ack
// inside handleSlot does this.
func (s *refSlot) armSlot() {
	fprog := s.api.Fprog()
	s.arm((s.api.Now()/fprog+1)*fprog - 1)
}

// arm posts the slot handler for tick fire unless one is already pending
// there. At most a few handlers are ever pending, so armed is a short list.
func (s *refSlot) arm(fire sim.Time) {
	if slices.Contains(s.armed, fire) {
		return
	}
	s.armed = append(s.armed, fire)
	s.api.ScheduleTimer(fire, nil, int64(fire), 0)
}

// OnTimer implements mac.TimerScheduler: the end-of-slot handler.
func (s *refSlot) OnTimer(_ any, a, _ int64) {
	fire := sim.Time(a)
	if i := slices.Index(s.armed, fire); i >= 0 {
		s.armed = slices.Delete(s.armed, i, i+1)
	}
	s.handleSlot(fire)
}

// handleSlot performs all deliveries and acks for the slot ending just
// after fire.
func (s *refSlot) handleSlot(fire sim.Time) {
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
	// Contenders are (instance, slot) pairs, so the delivered flag and the
	// reliability bit are read by slot instead of searched by receiver.
	n := d.N()
	if cap(s.contenders) < n {
		s.contenders = make([][]contender, n)
	}
	contenders := s.contenders[:n]
	for j := range contenders {
		contenders[j] = contenders[j][:0]
	}
	for _, b := range s.live {
		for i, j := range b.Neighbors() {
			if !b.SlotDelivered(i) {
				contenders[j] = append(contenders[j], contender{b, i})
			}
		}
	}

	for j := 0; j < n; j++ {
		cs := contenders[j]
		if len(cs) == 0 {
			continue
		}
		reliable := false
		for _, c := range cs {
			if c.b.SlotReliable(c.slot) {
				reliable = true
				break
			}
		}
		if !reliable && rng.Float64() >= s.greyP {
			continue
		}
		pick := cs[rng.Intn(len(cs))].b
		api.Deliver(pick, mac.NodeID(j))

		// Deadline enforcement for lingering instances: force-complete any
		// contender that cannot survive another slot.
		for _, c := range cs {
			if c.b != pick && c.b.SlotReliable(c.slot) && c.b.Start+api.Fack() < fire+api.Fprog() {
				api.Deliver(c.b, mac.NodeID(j))
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
		s.arm(fire + api.Fprog())
	}
}
