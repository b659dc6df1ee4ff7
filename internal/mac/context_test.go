package mac_test

import (
	"testing"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// introspector records everything the Context interface exposes.
type introspector struct {
	id      mac.NodeID
	n       int
	gN, gpN []mac.NodeID
	draw    int64
	emitted bool
	now     sim.Time
	fack    sim.Time
	fprog   sim.Time
}

func (in *introspector) Wakeup(ctx mac.Context) {
	in.id = ctx.ID()
	in.n = ctx.N()
	in.gN = append([]mac.NodeID(nil), ctx.GNeighbors()...)
	in.gpN = append([]mac.NodeID(nil), ctx.GPrimeNeighbors()...)
	in.draw = ctx.Rand().Int63()
	ctx.Emit("custom", mac.Int(5))
	in.emitted = true
	ec := ctx.(mac.EnhancedContext)
	in.now = ec.Now()
	in.fack = ec.Fack()
	in.fprog = ec.Fprog()
}
func (in *introspector) Recv(mac.Context, mac.Message)  {}
func (in *introspector) Acked(mac.Context, mac.Message) {}

func TestContextSurface(t *testing.T) {
	d := topology.LineRRestricted(4, 2, 1.0, nil)
	in := &introspector{}
	others := []mac.Automaton{&echoAutomaton{}, &echoAutomaton{}, &echoAutomaton{}}
	var tr sim.Trace
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      300,
		Fprog:     30,
		Scheduler: &directScheduler{},
		Mode:      mac.Enhanced,
		Seed:      9,
		Trace:     &tr,
	}, []mac.Automaton{others[0], in, others[1], others[2]})
	if eng.Mode() != mac.Enhanced {
		t.Fatalf("Mode = %v", eng.Mode())
	}
	eng.Start()
	eng.Run()

	if in.id != 1 || in.n != 4 {
		t.Fatalf("id=%d n=%d", in.id, in.n)
	}
	if len(in.gN) != 2 { // line neighbors 0 and 2
		t.Fatalf("GNeighbors = %v", in.gN)
	}
	if len(in.gpN) < 3 { // 2-restricted with p=1: also node 3
		t.Fatalf("GPrimeNeighbors = %v", in.gpN)
	}
	if in.now != 0 || in.fack != 300 || in.fprog != 30 {
		t.Fatalf("now=%v fack=%v fprog=%v", in.now, in.fack, in.fprog)
	}
	// The Emit landed in the trace.
	if got := tr.Filter("custom"); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("custom trace events = %v", got)
	}
}

func TestEngineHaltStopsRun(t *testing.T) {
	d := topology.Line(2)
	a := &echoAutomaton{payload: mac.Int(1)}
	eng := newTestEngine(t, d, mac.Standard, []mac.Automaton{a, &echoAutomaton{}})
	eng.Watch(func(ev sim.TraceEvent) {
		if ev.Kind == "bcast" {
			eng.Halt()
		}
	})
	eng.Start()
	eng.Run()
	// Halted right after the bcast: no deliveries processed.
	insts := eng.Instances()
	if len(insts) != 1 || insts[0].NumDelivered() != 0 {
		t.Fatalf("run did not halt promptly: %+v", insts)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	d := topology.Line(2)
	cases := []struct {
		name string
		cfg  mac.Config
		n    int
	}{
		{"nil dual", mac.Config{Fack: 100, Fprog: 10, Scheduler: &directScheduler{}}, 2},
		{"nil scheduler", mac.Config{Dual: d, Fack: 100, Fprog: 10}, 2},
		{"tiny fprog", mac.Config{Dual: d, Fack: 100, Fprog: 1, Scheduler: &directScheduler{}}, 2},
		{"fack < fprog", mac.Config{Dual: d, Fack: 5, Fprog: 10, Scheduler: &directScheduler{}}, 2},
		{"automata mismatch", mac.Config{Dual: d, Fack: 100, Fprog: 10, Scheduler: &directScheduler{}}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			autos := make([]mac.Automaton, tc.n)
			for i := range autos {
				autos[i] = &echoAutomaton{}
			}
			mac.NewEngine(tc.cfg, autos)
		})
	}
}

func TestInstanceAccessors(t *testing.T) {
	b := &mac.Instance{}
	if b.Terminated() {
		t.Fatal("fresh instance terminated")
	}
	b.Term = mac.Acked
	if !b.Terminated() {
		t.Fatal("acked instance not terminated")
	}
	if mac.Mode(99).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}
