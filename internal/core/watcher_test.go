package core

import (
	"slices"
	"testing"

	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/topology"
)

// misdeliverer breaks the MMB conditions on purpose: on arrive it delivers
// the message, a second time when twice is set, and then emits each of
// extra in order.
type misdeliverer struct {
	twice bool
	extra []emission
}

// emission is one event a misdeliverer emits through ctx.Emit.
type emission struct {
	kind string
	p    mac.Payload
}

func (a *misdeliverer) Wakeup(mac.Context)             {}
func (a *misdeliverer) Recv(mac.Context, mac.Message)  {}
func (a *misdeliverer) Acked(mac.Context, mac.Message) {}
func (a *misdeliverer) Arrive(ctx mac.Context, p mac.Payload) {
	ctx.Emit(DeliverKind, p)
	if a.twice {
		ctx.Emit(DeliverKind, p)
	}
	for _, e := range a.extra {
		ctx.Emit(e.kind, e.p)
	}
}

// TestWatcherReportsMisdeliveries pins the runner's online completion
// watcher, the runner's one MMB oracle, on its dense tables: a second
// deliver of a message at one node is a duplicate, and a deliver of a
// message before it arrives — one the workload injects later, or one it
// never injects (an ID past k, or another origin) — is reported as
// delivered before any arrive. An arrive emitted by an automaton is
// reported unless it is the first arrive of a message the run injects, and
// a deliver of a payload that is not a message is reported; none of these
// panics. Only the workload's own messages count toward completion. The
// runs are checked, and each violation is listed once: in MMBViolations,
// not again in the model-check report.
func TestWatcherReportsMisdeliveries(t *testing.T) {
	d := topology.Line(3)
	run := func(a *misdeliverer) *Result {
		t.Helper()
		w := &Workload{}
		w.Add(0, 0, Msg{ID: 0, Origin: 0})
		w.Add(50, 2, Msg{ID: 1, Origin: 2})
		fleet := []mac.Automaton{a, &misdeliverer{}, &misdeliverer{}}
		res, err := Run(RunConfig{Dual: d, Fack: testFack, Fprog: testFprog,
			Scheduler: &sched.Sync{}, Workload: w, Automata: fleet,
			Options: RunOptions{Check: true}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deliver := func(m Msg) emission { return emission{DeliverKind, m.Payload()} }
	for _, tc := range []struct {
		name      string
		a         *misdeliverer
		want      []string
		delivered int
	}{
		{"twice", &misdeliverer{twice: true},
			[]string{"duplicate deliver of m0@0 at node 0"}, 2},
		{"before its arrive", &misdeliverer{extra: []emission{deliver(Msg{ID: 1, Origin: 2})}},
			[]string{"deliver of m1@2 at node 0 before any arrive"}, 3},
		{"ID past k", &misdeliverer{extra: []emission{deliver(Msg{ID: 7, Origin: 0})}},
			[]string{"deliver of m7@0 at node 0 before any arrive"}, 2},
		{"other origin", &misdeliverer{extra: []emission{deliver(Msg{ID: 1, Origin: 0})}},
			[]string{"deliver of m1@0 at node 0 before any arrive"}, 2},
		{"arrive of a non-message", &misdeliverer{extra: []emission{{"arrive", mac.Int(5)}}},
			[]string{"arrive of a non-message payload (kind 2) at node 0"}, 2},
		{"arrive of an ID past k", &misdeliverer{extra: []emission{{"arrive", Msg{ID: 1000, Origin: 0}.Payload()}}},
			[]string{"arrive of m1000@0 at node 0, a message the run does not inject"}, 2},
		{"arrive re-emitted", &misdeliverer{extra: []emission{{"arrive", Msg{ID: 0, Origin: 0}.Payload()}}},
			[]string{"duplicate arrive of m0@0 at node 0"}, 2},
		{"arrive ahead of the engine", &misdeliverer{extra: []emission{
			{"arrive", Msg{ID: 1, Origin: 2}.Payload()}, deliver(Msg{ID: 1, Origin: 2})}},
			[]string{"duplicate arrive of m1@2 at node 2"}, 3},
		{"deliver of a non-message", &misdeliverer{extra: []emission{{DeliverKind, mac.Int(9)}}},
			[]string{"deliver of a non-message payload (kind 2) at node 0"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(tc.a)
			if !slices.Equal(res.MMBViolations, tc.want) {
				t.Fatalf("violations %q, want %q", res.MMBViolations, tc.want)
			}
			if res.Delivered != tc.delivered {
				t.Fatalf("Delivered = %d, want %d", res.Delivered, tc.delivered)
			}
			if res.Report == nil || !res.Report.OK() {
				t.Fatalf("model-check report %v, want a clean one (MMB violations are listed once, in MMBViolations)", res.Report)
			}
		})
	}
}
