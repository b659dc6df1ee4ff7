package mac_test

import (
	"testing"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// echoAutomaton broadcasts one payload at wakeup and records what it sees.
type echoAutomaton struct {
	payload  mac.Payload
	recvs    []mac.Message
	acks     int
	arriveds []mac.Payload
}

func (e *echoAutomaton) Wakeup(ctx mac.Context) {
	if !e.payload.IsZero() {
		ctx.Bcast(e.payload)
	}
}
func (e *echoAutomaton) Recv(_ mac.Context, m mac.Message)   { e.recvs = append(e.recvs, m) }
func (e *echoAutomaton) Acked(_ mac.Context, _ mac.Message)  { e.acks++ }
func (e *echoAutomaton) Arrive(_ mac.Context, p mac.Payload) { e.arriveds = append(e.arriveds, p) }

// directScheduler delivers to all G-neighbors after one tick and acks after
// two; unreliable edges never fire.
type directScheduler struct{ api mac.API }

func (d *directScheduler) Name() string          { return "direct" }
func (d *directScheduler) Attach(api mac.API)    { d.api = api }
func (d *directScheduler) OnAbort(*mac.Instance) {}
func (d *directScheduler) OnBcast(b *mac.Instance) {
	now := d.api.Now()
	for _, j := range d.api.Dual().G.Neighbors(b.Sender) {
		d.api.ScheduleDeliver(now+1, b, j)
	}
	d.api.ScheduleAck(now+2, b)
}

func newTestEngine(t *testing.T, d *topology.Dual, mode mac.Mode, autos []mac.Automaton) *mac.Engine {
	t.Helper()
	return mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      100,
		Fprog:     10,
		Scheduler: &directScheduler{},
		Mode:      mode,
		Seed:      1,
	}, autos)
}

func TestEngineBroadcastDeliveryAndAck(t *testing.T) {
	d := topology.Line(3)
	a0 := &echoAutomaton{payload: mac.Int(42)}
	a1 := &echoAutomaton{}
	a2 := &echoAutomaton{}
	eng := newTestEngine(t, d, mac.Standard, []mac.Automaton{a0, a1, a2})
	eng.Start()
	eng.Run()

	if len(a1.recvs) != 1 || a1.recvs[0].Payload != mac.Int(42) {
		t.Fatalf("node 1 recvs = %v", a1.recvs)
	}
	if len(a2.recvs) != 0 {
		t.Fatalf("node 2 should not receive (not a neighbor): %v", a2.recvs)
	}
	if a0.acks != 1 {
		t.Fatalf("sender acks = %d, want 1", a0.acks)
	}
	insts := eng.Instances()
	if len(insts) != 1 || insts[0].Term != mac.Acked {
		t.Fatalf("instances = %+v", insts)
	}
}

func TestEngineWellFormednessPanic(t *testing.T) {
	// A node broadcasting while pending must panic (user well-formedness).
	d := topology.Line(2)
	bad := &doubleBcast{}
	eng := newTestEngine(t, d, mac.Standard, []mac.Automaton{bad, &echoAutomaton{}})
	defer func() {
		if recover() == nil {
			t.Fatal("double bcast did not panic")
		}
	}()
	eng.Start()
	eng.Run()
}

type doubleBcast struct{}

func (d *doubleBcast) Wakeup(ctx mac.Context) {
	ctx.Bcast(mac.Int(1))
	ctx.Bcast(mac.Int(2))
}
func (d *doubleBcast) Recv(mac.Context, mac.Message)  {}
func (d *doubleBcast) Acked(mac.Context, mac.Message) {}

func TestEngineStandardModeRejectsEnhancedOps(t *testing.T) {
	d := topology.Line(2)
	sneaky := &clockPeeker{}
	eng := newTestEngine(t, d, mac.Standard, []mac.Automaton{sneaky, &echoAutomaton{}})
	defer func() {
		if recover() == nil {
			t.Fatal("standard-mode Now() did not panic")
		}
	}()
	eng.Start()
	eng.Run()
}

type clockPeeker struct{}

func (c *clockPeeker) Wakeup(ctx mac.Context) {
	_ = ctx.(mac.EnhancedContext).Now()
}
func (c *clockPeeker) Recv(mac.Context, mac.Message)  {}
func (c *clockPeeker) Acked(mac.Context, mac.Message) {}

// timerAutomaton exercises enhanced features: timers and abort.
type timerAutomaton struct {
	fired   []sim.Time
	aborted bool
}

func (ta *timerAutomaton) Wakeup(ctx mac.Context) {
	ec := ctx.(mac.EnhancedContext)
	ec.SetTimer(5)
	ec.SetTimer(9)
	ctx.Bcast(mac.Int(3))
}
func (ta *timerAutomaton) Recv(mac.Context, mac.Message)  {}
func (ta *timerAutomaton) Acked(mac.Context, mac.Message) {}
func (ta *timerAutomaton) Timer(ctx mac.EnhancedContext) {
	ta.fired = append(ta.fired, ctx.Now())
	if ctx.Now() == 5 && ctx.Pending() {
		ctx.Abort()
		ta.aborted = true
	}
}

// slowScheduler never delivers or acks on its own, so only an abort can
// terminate an instance.
type slowScheduler struct{ api mac.API }

func (s *slowScheduler) Name() string          { return "slow" }
func (s *slowScheduler) Attach(api mac.API)    { s.api = api }
func (s *slowScheduler) OnBcast(*mac.Instance) {}
func (s *slowScheduler) OnAbort(*mac.Instance) {}

func TestEngineEnhancedTimersAndAbort(t *testing.T) {
	d := topology.Line(2)
	ta := &timerAutomaton{}
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      100,
		Fprog:     10,
		Scheduler: &slowScheduler{},
		Mode:      mac.Enhanced,
		Seed:      1,
	}, []mac.Automaton{ta, &echoAutomaton{}})
	eng.Start()
	eng.Run()

	if !ta.aborted {
		t.Fatal("abort did not happen")
	}
	if len(ta.fired) != 2 || ta.fired[0] != 5 || ta.fired[1] != 9 {
		t.Fatalf("timers fired = %v", ta.fired)
	}
	insts := eng.Instances()
	if len(insts) != 1 || insts[0].Term != mac.Aborted || insts[0].TermAt != 5 {
		t.Fatalf("instance = %+v", insts[0])
	}
}

func TestEngineArrive(t *testing.T) {
	d := topology.Line(2)
	a0 := &echoAutomaton{}
	eng := newTestEngine(t, d, mac.Standard, []mac.Automaton{a0, &echoAutomaton{}})
	eng.Start()
	eng.Arrive(0, mac.Int(11), 3)
	eng.Run()
	if len(a0.arriveds) != 1 || a0.arriveds[0] != mac.Int(11) {
		t.Fatalf("arriveds = %v", a0.arriveds)
	}
}

func TestEngineDeliveryValidation(t *testing.T) {
	// A scheduler delivering over a non-edge must panic.
	d := topology.Line(3) // 0-1-2: no edge 0-2
	bad := &rogueScheduler{}
	eng := mac.NewEngine(mac.Config{
		Dual: d, Fack: 100, Fprog: 10, Scheduler: bad, Seed: 1,
	}, []mac.Automaton{&echoAutomaton{payload: mac.Int(1)}, &echoAutomaton{}, &echoAutomaton{}})
	defer func() {
		if recover() == nil {
			t.Fatal("non-edge delivery did not panic")
		}
	}()
	eng.Start()
	eng.Run()
}

type rogueScheduler struct{ api mac.API }

func (r *rogueScheduler) Name() string       { return "rogue" }
func (r *rogueScheduler) Attach(api mac.API) { r.api = api }
func (r *rogueScheduler) OnBcast(b *mac.Instance) {
	r.api.Deliver(b, 2) // not a G' neighbor of node 0
}
func (r *rogueScheduler) OnAbort(*mac.Instance) {}

func TestEngineAckBeforeDeliveryPanics(t *testing.T) {
	d := topology.Line(2)
	bad := &eagerAcker{}
	eng := mac.NewEngine(mac.Config{
		Dual: d, Fack: 100, Fprog: 10, Scheduler: bad, Seed: 1,
	}, []mac.Automaton{&echoAutomaton{payload: mac.Int(1)}, &echoAutomaton{}})
	defer func() {
		if recover() == nil {
			t.Fatal("premature ack did not panic")
		}
	}()
	eng.Start()
	eng.Run()
}

type eagerAcker struct{ api mac.API }

func (r *eagerAcker) Name() string            { return "eager" }
func (r *eagerAcker) Attach(api mac.API)      { r.api = api }
func (r *eagerAcker) OnBcast(b *mac.Instance) { r.api.Ack(b) }
func (r *eagerAcker) OnAbort(*mac.Instance)   {}

func TestEngineWatch(t *testing.T) {
	d := topology.Line(2)
	var kinds []string
	eng := newTestEngine(t, d, mac.Standard,
		[]mac.Automaton{&echoAutomaton{payload: mac.Int(1)}, &echoAutomaton{}})
	eng.Watch(func(ev sim.TraceEvent) { kinds = append(kinds, ev.Kind) })
	eng.Start()
	eng.Run()
	want := []string{"bcast", "rcv", "ack"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if mac.Standard.String() != "standard" || mac.Enhanced.String() != "enhanced" {
		t.Fatal("mode names wrong")
	}
}
