package sched

import (
	"amac/internal/mac"
	"amac/internal/topology"
)

// ParallelLines is the adversarial schedule of Lemmas 3.19/3.20, specialized
// to BMMB-style flooding on the Figure 2 network C: message m0 starts at a₁,
// message m1 at b₁, and the scheduler forces each message's progress down
// its own line to cost a full Fack per hop, for a total of Ω(D·Fack).
//
// Strategy, per the paper: the broadcast of the frontier node aᵢ carrying m0
// is stretched to the full acknowledgment bound. During the stretch, the
// only delivery that satisfies the progress bound for the next node aᵢ₊₁ is
// the *cross* delivery of m1 from the opposite frontier bᵢ over the G′ edge
// (bᵢ, aᵢ₊₁) — so aᵢ₊₁ stays busy with m1 while m0 is withheld until the
// last legal moment. Every non-frontier broadcast is delivered to its
// reliable neighbors and acknowledged instantaneously, which floods the
// *other* line's message for free but never advances a message down its own
// line faster than one hop per Fack. The two frontiers stay in lock-step by
// construction, so each stretch is covered by its twin.
//
// The scheduler recognizes the tracked messages by payload equality against
// M0/M1 (or via the optional IsM0/IsM1 predicates), keeping it independent
// of the algorithm's payload encoding.
type ParallelLines struct {
	// Net is the Figure 2 network the execution runs on. Required.
	Net *topology.ParallelLinesC
	// M0 is the payload of the message that starts on line A; M1 the one
	// that starts on line B. They are matched by equality, which costs no
	// per-build closures.
	M0, M1 mac.Payload
	// IsM0/IsM1, when set, override the equality matching.
	IsM0 func(payload mac.Payload) bool
	// IsM1 recognizes payloads carrying the message that starts on line B.
	IsM1 func(payload mac.Payload) bool

	api    mac.API
	aFront int // highest 1-based index on line A that has received m0
	bFront int // highest 1-based index on line B that has received m1
}

var (
	_ mac.Scheduler      = (*ParallelLines)(nil)
	_ mac.TimerScheduler = (*ParallelLines)(nil)
	_ Resettable         = (*ParallelLines)(nil)
)

// Name implements mac.Scheduler.
func (p *ParallelLines) Name() string { return "parallel-lines-adversary" }

// Reset implements Resettable: the network artifact and tracked payloads are
// rebound from the new environment (custom predicates, when set, are kept).
// Frontier state is re-initialized by Attach.
func (p *ParallelLines) Reset(env Env) bool {
	net, ok := env.Artifact.(*topology.ParallelLinesC)
	if !ok {
		return false
	}
	if p.IsM0 == nil || p.IsM1 == nil {
		if len(env.Payloads) != 2 {
			return false
		}
		p.M0, p.M1 = env.Payloads[0], env.Payloads[1]
	}
	p.Net = net
	return true
}

// isM0 reports whether payload carries the line-A message.
func (p *ParallelLines) isM0(payload mac.Payload) bool {
	if p.IsM0 != nil {
		return p.IsM0(payload)
	}
	return payload == p.M0
}

// isM1 reports whether payload carries the line-B message.
func (p *ParallelLines) isM1(payload mac.Payload) bool {
	if p.IsM1 != nil {
		return p.IsM1(payload)
	}
	return payload == p.M1
}

// Attach implements mac.Scheduler.
func (p *ParallelLines) Attach(api mac.API) {
	if p.Net == nil {
		panic("sched: ParallelLines requires Net")
	}
	if (p.IsM0 == nil || p.IsM1 == nil) && p.M0.IsZero() && p.M1.IsZero() {
		panic("sched: ParallelLines requires M0/M1 payloads or IsM0/IsM1 predicates")
	}
	p.api = api
	p.aFront = 1
	p.bFront = 1
}

// lineIndex classifies a node: line 'a' or 'b' plus the 1-based index.
func (p *ParallelLines) lineIndex(v mac.NodeID) (line byte, idx int) {
	d := p.Net.D
	if int(v) < d {
		return 'a', int(v) + 1
	}
	return 'b', int(v) - d + 1
}

// OnBcast implements mac.Scheduler.
func (p *ParallelLines) OnBcast(b *mac.Instance) {
	line, idx := p.lineIndex(b.Sender)
	switch {
	case p.isM0(b.Payload) && line == 'a' && idx == p.aFront && idx < p.Net.D:
		p.stretch(b, line, idx)
	case p.isM1(b.Payload) && line == 'b' && idx == p.bFront && idx < p.Net.D:
		p.stretch(b, line, idx)
	default:
		p.instant(b)
	}
}

// OnAbort implements mac.Scheduler. BMMB never aborts; stretched deliveries
// self-cancel through the Term checks.
func (p *ParallelLines) OnAbort(*mac.Instance) {}

// instant delivers to all reliable neighbors and acks, with no time
// passing — the round-robin "everything else is free" rule of Lemma 3.19.
func (p *ParallelLines) instant(b *mac.Instance) {
	for i := range b.Neighbors() {
		if b.SlotReliable(i) {
			p.api.Deliver(b, i)
		}
	}
	p.api.Ack(b)
}

// stretch runs the frontier schedule for instance b at line position idx:
// the previous node on the line and the diagonal node on the opposite line
// receive after Fprog; the next node on the line receives only at the Fack
// deadline, immediately followed by the ack. Advancing the frontier index
// before that final delivery lets the receiver's immediate re-broadcast be
// classified as the new frontier.
func (p *ParallelLines) stretch(b *mac.Instance, line byte, idx int) {
	api := p.api
	now := api.Now()
	var prev, diag mac.NodeID
	havePrev := idx > 1
	if line == 'a' {
		if havePrev {
			prev = p.Net.A(idx - 1)
		}
		diag = p.Net.B(idx + 1)
	} else {
		if havePrev {
			prev = p.Net.B(idx - 1)
		}
		diag = p.Net.A(idx + 1)
	}

	if havePrev {
		api.ScheduleDeliver(now+api.Fprog(), b, prev)
	}
	api.ScheduleDeliver(now+api.Fprog(), b, diag)
	api.ScheduleTimer(now+api.Fack(), b, int64(idx), int64(line))
}

// OnTimer implements mac.TimerScheduler: the Fack-deadline finale of a
// stretched frontier broadcast. The frontier index advances before the
// final delivery so the receiver's immediate re-broadcast is classified as
// the new frontier.
func (p *ParallelLines) OnTimer(obj any, a, c int64) {
	b := obj.(*mac.Instance)
	idx, line := int(a), byte(c)
	if b.Term != mac.Active {
		return
	}
	var next mac.NodeID
	if line == 'a' {
		p.aFront = idx + 1
		next = p.Net.A(idx + 1)
	} else {
		p.bFront = idx + 1
		next = p.Net.B(idx + 1)
	}
	if slot := b.SlotOf(next); !b.SlotDelivered(slot) {
		p.api.Deliver(b, slot)
	}
	p.api.Ack(b)
}
