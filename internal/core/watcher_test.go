package core

import (
	"slices"
	"testing"

	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/topology"
)

// misdeliverer breaks the MMB delivery conditions on purpose: on arrive it
// delivers the message, a second time when twice is set, and then the
// message stray, when set, which it was never given.
type misdeliverer struct {
	twice bool
	stray *Msg
}

func (a *misdeliverer) Wakeup(mac.Context)             {}
func (a *misdeliverer) Recv(mac.Context, mac.Message)  {}
func (a *misdeliverer) Acked(mac.Context, mac.Message) {}
func (a *misdeliverer) Arrive(ctx mac.Context, p mac.Payload) {
	ctx.Emit(DeliverKind, p)
	if a.twice {
		ctx.Emit(DeliverKind, p)
	}
	if a.stray != nil {
		ctx.Emit(DeliverKind, a.stray.Payload())
	}
}

// TestWatcherReportsMisdeliveries pins the runner's online completion
// watcher on its dense tables: a second deliver of a message at one node is
// a duplicate, and a deliver of a message before it arrives — one the
// workload injects later, or one it never injects (an ID past k, or another
// origin) — is reported as delivered before any arrive. Only the
// workload's own messages count toward completion.
func TestWatcherReportsMisdeliveries(t *testing.T) {
	d := topology.Line(3)
	run := func(a *misdeliverer) *Result {
		t.Helper()
		w := &Workload{}
		w.Add(0, 0, Msg{ID: 0, Origin: 0})
		w.Add(50, 2, Msg{ID: 1, Origin: 2})
		fleet := []mac.Automaton{a, &misdeliverer{}, &misdeliverer{}}
		res, err := Run(RunConfig{Dual: d, Fack: testFack, Fprog: testFprog,
			Scheduler: &sched.Sync{}, Workload: w, Automata: fleet})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		name      string
		a         *misdeliverer
		want      []string
		delivered int
	}{
		{"twice", &misdeliverer{twice: true},
			[]string{"duplicate deliver of m0@0 at node 0"}, 2},
		{"before its arrive", &misdeliverer{stray: &Msg{ID: 1, Origin: 2}},
			[]string{"deliver of m1@2 at node 0 before any arrive"}, 3},
		{"ID past k", &misdeliverer{stray: &Msg{ID: 7, Origin: 0}},
			[]string{"deliver of m7@0 at node 0 before any arrive"}, 2},
		{"other origin", &misdeliverer{stray: &Msg{ID: 1, Origin: 0}},
			[]string{"deliver of m1@0 at node 0 before any arrive"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(tc.a)
			if !slices.Equal(res.MMBViolations, tc.want) {
				t.Fatalf("violations %q, want %q", res.MMBViolations, tc.want)
			}
			if res.Delivered != tc.delivered {
				t.Fatalf("Delivered = %d, want %d", res.Delivered, tc.delivered)
			}
		})
	}
}
