package rt

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// runRealTime executes BMMB over the real-time engine until all required
// deliveries happen (or timeout) and returns the engine plus the completion
// wall time. wrap, when non-nil, wraps each node's BMMB process.
func runRealTime(t *testing.T, d *topology.Dual, a core.Assignment, cfg Config, timeout time.Duration, wrap func(mac.Automaton) mac.Automaton) (*Engine, time.Duration) {
	t.Helper()
	cfg.Dual = d
	fleet := core.NewBMMBFleet(d.N())
	if wrap != nil {
		for i, a := range fleet {
			fleet[i] = wrap(a)
		}
	}
	eng := New(cfg, fleet)

	required := a.K() * d.N() // assumes connected G
	var mu sync.Mutex
	seen := make(map[[2]int]bool)
	done := make(chan struct{})
	eng.Watch(func(node mac.NodeID, kind string, arg any) {
		if kind != core.DeliverKind {
			return
		}
		m := arg.(core.Msg)
		mu.Lock()
		defer mu.Unlock()
		key := [2]int{int(node), m.ID}
		if seen[key] {
			return
		}
		seen[key] = true
		if len(seen) == required {
			close(done)
		}
	})

	start := time.Now()
	eng.Start()
	for v, msgs := range a {
		for _, m := range msgs {
			eng.Arrive(mac.NodeID(v), m.Payload())
		}
	}
	select {
	case <-done:
	case <-time.After(timeout):
		eng.Stop()
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		t.Fatalf("real-time run timed out: %d/%d deliveries", got, required)
	}
	elapsed := time.Since(start)

	// Deliveries complete before the trailing BMMB re-broadcasts drain;
	// wait for quiescence (all instances terminated, count stable) so the
	// recorded execution is complete.
	deadline := time.Now().Add(timeout)
	for {
		count, settled := eng.Quiescent()
		if settled {
			time.Sleep(2 * cfg.RecvDelay)
			if c2, s2 := eng.Quiescent(); s2 && c2 == count {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("run never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng.Stop()
	return eng, elapsed
}

func TestRealTimeBMMBLine(t *testing.T) {
	d := topology.Line(8)
	cfg := Config{
		Fprog:     80 * time.Millisecond,
		Fack:      800 * time.Millisecond,
		RecvDelay: 10 * time.Millisecond,
		AckDelay:  60 * time.Millisecond,
		Seed:      1,
	}
	eng, elapsed := runRealTime(t, d, core.SingleSource(8, 0, 2), cfg, 10*time.Second, nil)

	// Sanity: completion should be within an order of magnitude of the
	// deterministic expectation D·RecvDelay + k·AckDelay.
	expect := 7*cfg.RecvDelay + 2*cfg.AckDelay
	if elapsed > 10*expect {
		t.Fatalf("completion %v far beyond expectation %v", elapsed, expect)
	}

	// The recorded execution must satisfy the model guarantees.
	rep := check.All(d, eng.Instances(), check.Params{
		Fack:  sim.Time(cfg.Fack),
		Fprog: sim.Time(cfg.Fprog),
		End:   eng.Elapsed(),
	})
	if !rep.OK() {
		t.Fatalf("real execution violates the model: %v", rep.Violations[0])
	}
	// Every node broadcast both messages exactly once (BMMB behavior
	// carries over unchanged).
	counts := make(map[mac.NodeID]int)
	for _, b := range eng.Instances() {
		counts[b.Sender]++
	}
	for i := 0; i < 8; i++ {
		if counts[mac.NodeID(i)] != 2 {
			t.Fatalf("node %d broadcast %d times, want 2", i, counts[mac.NodeID(i)])
		}
	}
}

func TestRealTimeBMMBGreyZone(t *testing.T) {
	d := topology.LineRRestricted(8, 3, 1.0, nil)
	cfg := Config{
		Fprog:     80 * time.Millisecond,
		Fack:      800 * time.Millisecond,
		RecvDelay: 10 * time.Millisecond,
		AckDelay:  60 * time.Millisecond,
		GreyP:     0.7,
		Seed:      2,
	}
	eng, _ := runRealTime(t, d, core.Singleton(8, []graph.NodeID{0, 7}), cfg, 10*time.Second, nil)
	rep := check.All(d, eng.Instances(), check.Params{
		Fack:  sim.Time(cfg.Fack),
		Fprog: sim.Time(cfg.Fprog),
		End:   eng.Elapsed(),
	})
	if !rep.OK() {
		t.Fatalf("real grey-zone execution violates the model: %v", rep.Violations[0])
	}
	grey := 0
	for _, b := range eng.Instances() {
		for to := range b.Receivers() {
			if !d.G.HasEdge(b.Sender, to) {
				grey++
			}
		}
	}
	if grey == 0 {
		t.Fatal("no grey-zone deliveries despite GreyP=0.7")
	}
}

// gEdgeProbe wraps a node's BMMB process and checks, on every rcv, that
// Message.Reliable equals Sender ∈ GNeighbors(). Nodes run on their own
// goroutines, so the counts are atomic.
type gEdgeProbe struct {
	mac.Automaton
	reliable, grey, wrong *atomic.Int64
}

func (p *gEdgeProbe) Recv(ctx mac.Context, m mac.Message) {
	_, inG := slices.BinarySearch(ctx.GNeighbors(), m.Sender)
	switch {
	case inG != m.Reliable:
		p.wrong.Add(1)
	case inG:
		p.reliable.Add(1)
	default:
		p.grey.Add(1)
	}
	p.Automaton.Recv(ctx, m)
}

func (p *gEdgeProbe) Arrive(ctx mac.Context, payload mac.Payload) {
	p.Automaton.(mac.Arriver).Arrive(ctx, payload)
}

// TestRealTimeRcvCarriesGEdgeBit checks that the real-time executor sets
// the G-edge bit on every rcv, as the simulator does, on the grey-zone
// line with GreyP 0.7, so both kinds of rcv occur.
func TestRealTimeRcvCarriesGEdgeBit(t *testing.T) {
	d := topology.LineRRestricted(8, 3, 1.0, nil)
	cfg := Config{
		Fprog:     80 * time.Millisecond,
		Fack:      800 * time.Millisecond,
		RecvDelay: 10 * time.Millisecond,
		AckDelay:  60 * time.Millisecond,
		GreyP:     0.7,
		Seed:      5,
	}
	var reliable, grey, wrong atomic.Int64
	runRealTime(t, d, core.Singleton(8, []graph.NodeID{0, 7}), cfg, 10*time.Second, func(a mac.Automaton) mac.Automaton {
		return &gEdgeProbe{a, &reliable, &grey, &wrong}
	})
	if wrong.Load() != 0 {
		t.Fatalf("%d rcvs carried a G-edge bit that disagrees with the receiver's G row (%d reliable, %d grey agreed)",
			wrong.Load(), reliable.Load(), grey.Load())
	}
	if reliable.Load() == 0 || grey.Load() == 0 {
		t.Fatalf("want reliable and grey rcvs, got %d and %d", reliable.Load(), grey.Load())
	}
}

func TestRealTimeStopIdempotent(t *testing.T) {
	d := topology.Line(4)
	eng := New(Config{Dual: d, Seed: 3}, core.NewBMMBFleet(4))
	eng.Start()
	eng.Arrive(0, core.Msg{ID: 0, Origin: 0}.Payload())
	time.Sleep(30 * time.Millisecond)
	eng.Stop()
	eng.Stop() // must not panic or hang
	// After stop, instances are quiescent and readable.
	_ = eng.Instances()
}

func TestRealTimeStopCancelsWork(t *testing.T) {
	// Stopping immediately after start must not leave goroutines delivering.
	d := topology.Line(6)
	eng := New(Config{Dual: d, Seed: 4}, core.NewBMMBFleet(6))
	eng.Start()
	eng.Arrive(0, core.Msg{ID: 0, Origin: 0}.Payload())
	eng.Stop()
	before := len(eng.Instances())
	time.Sleep(50 * time.Millisecond)
	after := len(eng.Instances())
	if after != before {
		t.Fatalf("instances kept appearing after Stop: %d -> %d", before, after)
	}
}

func TestRealTimeConfigValidation(t *testing.T) {
	d := topology.Line(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad delays did not panic")
		}
	}()
	New(Config{
		Dual:      d,
		Fprog:     10 * time.Millisecond,
		RecvDelay: 20 * time.Millisecond, // >= Fprog: invalid
	}, core.NewBMMBFleet(2))
}
