package mac_test

import (
	"testing"

	"amac/internal/check"
	"amac/internal/mac"
	"amac/internal/topology"
)

// lingerScheduler delivers a broadcast to G-neighbors shortly *after* the
// sender aborts it, exercising the ε_abort allowance of Section 3.2.1. The
// delivery rides a scheduler timer rather than ScheduleDeliver, whose guard
// would skip it once the instance is aborted.
type lingerScheduler struct{ api mac.API }

func (s *lingerScheduler) Name() string          { return "linger" }
func (s *lingerScheduler) Attach(api mac.API)    { s.api = api }
func (s *lingerScheduler) OnAbort(*mac.Instance) {}
func (s *lingerScheduler) OnBcast(b *mac.Instance) {
	for _, j := range s.api.Dual().G.Neighbors(b.Sender) {
		s.api.ScheduleTimer(b.Start+4, b, int64(j), 0)
	}
}
func (s *lingerScheduler) OnTimer(obj any, to, _ int64) {
	b := obj.(*mac.Instance)
	s.api.Deliver(b, b.SlotOf(mac.NodeID(to)))
}

// abortEarly broadcasts at wakeup and aborts after 2 ticks — before the
// linger scheduler's delivery at +4.
type abortEarly struct{ recvd int }

func (a *abortEarly) Wakeup(ctx mac.Context) {
	ec := ctx.(mac.EnhancedContext)
	ctx.Bcast(mac.Int(1))
	ec.SetTimer(2)
}
func (a *abortEarly) Recv(mac.Context, mac.Message)  { a.recvd++ }
func (a *abortEarly) Acked(mac.Context, mac.Message) {}
func (a *abortEarly) Timer(ctx mac.EnhancedContext) {
	ctx.Abort()
}

func TestEpsAbortAllowsLateDelivery(t *testing.T) {
	d := topology.Line(2)
	recv := &abortEarly{}
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      100,
		Fprog:     10,
		Scheduler: &lingerScheduler{},
		Mode:      mac.Enhanced,
		Seed:      1,
		EpsAbort:  5, // delivery at +4 is 2 ticks after the abort at +2: within eps
	}, []mac.Automaton{&abortEarly{}, recv})
	eng.Start()
	eng.Run()

	insts := eng.Instances()
	if len(insts) != 2 {
		t.Fatalf("instances = %d", len(insts))
	}
	for _, b := range insts {
		if b.Term != mac.Aborted {
			t.Fatalf("instance %d should be aborted", b.ID)
		}
		if b.NumDelivered() != 1 {
			t.Fatalf("instance %d delivered to %d nodes, want 1 (within eps)", b.ID, b.NumDelivered())
		}
	}
	rep := check.All(d, insts, check.Params{Fack: 100, Fprog: 10, EpsAbort: 5, End: eng.Sim().Now()})
	if !rep.OK() {
		t.Fatalf("eps-abort execution flagged: %v", rep.Violations[0])
	}
}

func TestEpsAbortZeroRejectsLateDelivery(t *testing.T) {
	d := topology.Line(2)
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      100,
		Fprog:     10,
		Scheduler: &lingerScheduler{},
		Mode:      mac.Enhanced,
		Seed:      1,
		// EpsAbort zero: the +4 delivery lands 2 ticks after the abort and
		// must be rejected by the engine.
	}, []mac.Automaton{&abortEarly{}, &abortEarly{}})
	defer func() {
		if recover() == nil {
			t.Fatal("late post-abort delivery did not panic with eps=0")
		}
	}()
	eng.Start()
	eng.Run()
}
