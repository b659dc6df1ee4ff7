package sched

import (
	"math/rand"

	"amac/internal/mac"
	"amac/internal/sim"
)

// Random draws all timing uniformly inside the model bounds: each
// G-neighbor receives after a uniform delay in [1, Fprog], each selected
// unreliable neighbor after a uniform delay in [1, ackDelay], and the ack
// fires after a uniform delay in [maxReceiveDelay, Fack]. It exercises the
// model's timing freedom; upper-bound experiments must hold under it.
type Random struct {
	// Rel selects which unreliable links fire; nil means Never.
	Rel Reliability

	api mac.API
}

var (
	_ mac.Scheduler = (*Random)(nil)
	_ Resettable    = (*Random)(nil)
)

// Name implements mac.Scheduler.
func (r *Random) Name() string {
	rel := "never"
	if r.Rel != nil {
		rel = r.Rel.Name()
	}
	return "random(rel=" + rel + ")"
}

// Reset implements Resettable: Random keeps no cross-run state of its own.
func (r *Random) Reset(Env) bool {
	resetRel(r.Rel)
	return true
}

// Attach implements mac.Scheduler.
func (r *Random) Attach(api mac.API) { r.api = api }

// OnBcast implements mac.Scheduler.
//
//amac:hotpath
func (r *Random) OnBcast(b *mac.Instance) {
	api := r.api
	rng := api.Rand()
	now := api.Now()

	maxRecv := sim.Time(1)
	for _, j := range api.Dual().G.Neighbors(b.Sender) {
		d := uniformTime(rng, 1, api.Fprog())
		if d > maxRecv {
			maxRecv = d
		}
		api.ScheduleDeliver(now+d, b, j)
	}
	ackDelay := uniformTime(rng, maxRecv, api.Fack())
	nbrs := b.Neighbors()
	for _, s := range greyTargets(api, b, r.Rel) {
		api.ScheduleDeliver(now+uniformTime(rng, 1, ackDelay), b, nbrs[s])
	}
	api.ScheduleAck(now+ackDelay, b)
}

// uniformTime draws a uniform delay in [lo, hi], collapsing to lo when the
// interval is empty.
func uniformTime(rng *rand.Rand, lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(rng.Int63n(int64(hi-lo+1)))
}

// OnAbort implements mac.Scheduler.
func (r *Random) OnAbort(*mac.Instance) {}
