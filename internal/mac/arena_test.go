package mac_test

import (
	"testing"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// typedScheduler is a closure-free scheduler exercising the typed API the
// shipped schedulers use: reliable batch after one tick, ack after two.
type typedScheduler struct{ api mac.API }

func (s *typedScheduler) Name() string          { return "typed" }
func (s *typedScheduler) Attach(api mac.API)    { s.api = api }
func (s *typedScheduler) OnAbort(*mac.Instance) {}
func (s *typedScheduler) OnBcast(b *mac.Instance) {
	now := s.api.Now()
	s.api.ScheduleReliableDeliveries(now+1, b)
	s.api.ScheduleAck(now+2, b)
}

// arenaConfig returns an engine config for the dual, optionally backed by
// the arena.
func arenaConfig(d *topology.Dual, a *mac.Arena, seed int64) mac.Config {
	return mac.Config{
		Dual:      d,
		Fack:      100,
		Fprog:     10,
		Scheduler: &typedScheduler{},
		Seed:      seed,
		Arena:     a,
	}
}

// floodFleet returns one broadcasting echo automaton per node.
func floodFleet(n int) []mac.Automaton {
	autos := make([]mac.Automaton, n)
	for i := range autos {
		autos[i] = &echoAutomaton{payload: mac.Int(int64(i))}
	}
	return autos
}

// runFlood executes one flood and renders its observable state: the trace
// plus every instance's delivery times over all nodes (exercising both
// WasDelivered and DeliveredAt). A nil arena runs on a fresh private one.
func runFlood(d *topology.Dual, a *mac.Arena, seed int64) (trace string, deliveries [][]int64) {
	var tr sim.Trace
	cfg := arenaConfig(d, a, seed)
	cfg.Trace = &tr
	eng := mac.NewEngine(cfg, floodFleet(d.N()))
	eng.Start()
	eng.Run()
	trace = tr.String()
	for _, b := range eng.Instances() {
		row := make([]int64, d.N())
		for v := 0; v < d.N(); v++ {
			at, ok := b.DeliveredAt(mac.NodeID(v))
			if ok != b.WasDelivered(mac.NodeID(v)) {
				panic("WasDelivered and DeliveredAt disagree")
			}
			if ok {
				row[v] = int64(at) + 1
			}
		}
		deliveries = append(deliveries, row)
	}
	return trace, deliveries
}

// TestArenaEngineMatchesCold pins that executions on a warm arena are
// byte-identical to cold constructions: same trace, same per-instance
// delivery state, across repeated acquisitions of the same arena.
func TestArenaEngineMatchesCold(t *testing.T) {
	d := topology.LineRRestricted(12, 2, 1.0, nil) // p=1: deterministic G′ ⊃ G
	coldTrace, coldDel := runFlood(d, nil, 3)

	a := mac.NewArena(d)
	for round := 0; round < 3; round++ {
		trace, del := runFlood(d, a, 3)
		if trace != coldTrace {
			t.Fatalf("round %d: arena trace diverged from cold run", round)
		}
		if len(del) != len(coldDel) {
			t.Fatalf("round %d: %d instances, cold had %d", round, len(del), len(coldDel))
		}
		for i := range del {
			for v := range del[i] {
				if del[i][v] != coldDel[i][v] {
					t.Fatalf("round %d: instance %d delivery at node %d = %d, cold %d",
						round, i, v, del[i][v], coldDel[i][v])
				}
			}
		}
	}
}

// TestArenaWarmEngineConstructionAllocFree is the tentpole's construction
// guarantee: after the first execution has filled the pools, acquiring an
// engine from the arena — node states, trace, simulation engine, event
// pool — allocates nothing.
func TestArenaWarmEngineConstructionAllocFree(t *testing.T) {
	d := topology.Line(32)
	a := mac.NewArena(d)
	autos := floodFleet(d.N())

	// Warm the pools with one full execution. The scheduler is hoisted so
	// the measurement below counts only the engine's own allocations.
	cfg := arenaConfig(d, a, 1)
	eng := mac.NewEngine(cfg, autos)
	eng.Start()
	eng.Run()

	cfg.Seed = 2
	allocs := testing.AllocsPerRun(50, func() {
		mac.NewEngine(cfg, autos)
	})
	if allocs != 0 {
		t.Fatalf("warm arena engine construction allocates %.0f times, want 0", allocs)
	}
}

// TestArenaWrongDual pins the guard against running a different network on
// an arena's precomputed index.
func TestArenaWrongDual(t *testing.T) {
	a := mac.NewArena(topology.Line(8))
	other := topology.Line(8)
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted an arena built for a different dual")
		}
	}()
	mac.NewEngine(arenaConfig(other, a, 1), floodFleet(8))
}

// TestArenaDeliveryValidation pins that the CSR delivery path enforces
// receive correctness: a delivery without a G′ edge must be rejected.
func TestArenaDeliveryValidation(t *testing.T) {
	d := topology.Line(4)
	a := mac.NewArena(d)
	var b *mac.Instance
	s := &hookScheduler{onBcast: func(inst *mac.Instance) { b = inst }}
	eng := mac.NewEngine(mac.Config{
		Dual: d, Fack: 100, Fprog: 10, Scheduler: s, Seed: 1, Arena: a,
	}, floodFleet(4))
	_ = eng
	eng.Start()
	eng.Sim().SetHorizon(0)
	eng.Run()
	if b == nil {
		t.Fatal("no broadcast observed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arena Deliver accepted a non-G′ receiver")
		}
	}()
	eng.Deliver(b, b.SlotOf(3)) // node 0's row on a line is {1}; 3 is not a G′ neighbor: slot -1
}

// TestDeliverRejectsSlotsOutsideRow pins Deliver's slot check: -1 (what
// SlotOf gives for a node outside the row), the slot just past the row's
// end and one far past it all panic instead of writing another row.
func TestDeliverRejectsSlotsOutsideRow(t *testing.T) {
	d := topology.Line(4)
	var b *mac.Instance
	s := &hookScheduler{onBcast: func(inst *mac.Instance) { b = inst }}
	eng := mac.NewEngine(mac.Config{
		Dual: d, Fack: 100, Fprog: 10, Scheduler: s, Seed: 1,
	}, floodFleet(4))
	eng.Start()
	eng.Sim().SetHorizon(0)
	eng.Run()
	if b == nil {
		t.Fatal("no broadcast observed")
	}
	for _, slot := range []int{-1, len(b.Neighbors()), 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Deliver accepted slot %d of a %d-slot row", slot, len(b.Neighbors()))
				}
			}()
			eng.Deliver(b, slot)
		}()
	}
}

// hookScheduler exposes OnBcast to the test.
type hookScheduler struct {
	api     mac.API
	onBcast func(*mac.Instance)
}

func (s *hookScheduler) Name() string            { return "hook" }
func (s *hookScheduler) Attach(api mac.API)      { s.api = api }
func (s *hookScheduler) OnAbort(*mac.Instance)   {}
func (s *hookScheduler) OnBcast(b *mac.Instance) { s.onBcast(b) }

// TestArenaRebindMatchesCold pins the unpinned-sweep contract: one arena
// rebound across different networks (sizes and G′ shapes) replays each
// network's cold execution byte for byte, including a rebind back to an
// earlier network.
func TestArenaRebindMatchesCold(t *testing.T) {
	duals := []*topology.Dual{
		topology.LineRRestricted(12, 2, 1.0, nil),
		topology.Line(20),
		topology.LineRRestricted(7, 3, 1.0, nil),
		topology.LineRRestricted(12, 2, 1.0, nil),
	}
	a := mac.NewArena(duals[0])
	for i, d := range duals {
		coldTrace, coldDel := runFlood(d, nil, int64(i+3))
		a.Rebind(d)
		trace, del := runFlood(d, a, int64(i+3))
		if trace != coldTrace {
			t.Fatalf("dual %d (%s): rebound arena trace diverged from cold run", i, d.Name)
		}
		for bi := range del {
			for v := range del[bi] {
				if del[bi][v] != coldDel[bi][v] {
					t.Fatalf("dual %d: instance %d delivery at node %d = %d, cold %d",
						i, bi, v, del[bi][v], coldDel[bi][v])
				}
			}
		}
	}
}

// TestArenaRebindCapacityFitAllocFree pins satellite coverage of the reuse
// path: rebinding between two same-shaped networks, once warm, allocates no
// CSR storage at all — the position map is refilled into its buckets and
// the delivery block is kept.
func TestArenaRebindCapacityFitAllocFree(t *testing.T) {
	d1 := topology.Line(24)
	d2 := topology.Line(24)
	a := mac.NewArena(d1)
	runFlood(d1, a, 1)
	a.Rebind(d2)
	runFlood(d2, a, 1)
	allocs := testing.AllocsPerRun(20, func() {
		a.Rebind(d1)
		a.Rebind(d2)
	})
	if allocs != 0 {
		t.Fatalf("capacity-fit Rebind allocates %.0f times, want 0", allocs)
	}
	if a.Cap() == 0 {
		t.Fatal("delivery block was dropped by Rebind")
	}
}

// TestArenaRebindGrowsGeometrically pins the block growth policy: a rebind
// whose degree sum exceeds the block doubles it (at least), so alternating
// between network sizes settles instead of reallocating every trial; a
// rebind that fits keeps the block.
func TestArenaRebindGrowsGeometrically(t *testing.T) {
	seed := topology.Line(8)
	a := mac.NewArena(seed)
	runFlood(seed, a, 1) // block warms to the 8-line's 14 arcs
	cap0 := a.Cap()
	if cap0 == 0 {
		t.Fatal("flood did not warm the delivery block")
	}

	small := topology.Line(5)
	a.Rebind(small)
	if a.Cap() != cap0 {
		t.Fatalf("fitting rebind resized the block: %d -> %d", cap0, a.Cap())
	}

	big := topology.Line(cap0) // 2(cap0-1) arcs: exceeds cap0, under 2×
	a.Rebind(big)
	if a.Cap() < 2*cap0 {
		t.Fatalf("growth is not geometric: cap %d -> %d, want >= %d", cap0, a.Cap(), 2*cap0)
	}

	huge := topology.Line(4 * cap0) // demand beyond 2×: grows to exact need
	a.Rebind(huge)
	if want := 2 * (4*cap0 - 1); a.Cap() != want {
		t.Fatalf("oversized rebind cap = %d, want the exact demand %d", a.Cap(), want)
	}
}

// TestArenaRebindClearsOverflow pins that delivery marks injected into a
// pooled instance record through its row never leak into the instances of
// a later run on a rebound arena.
func TestArenaRebindClearsOverflow(t *testing.T) {
	d1 := topology.Line(4)
	a := mac.NewArena(d1)
	var captured *mac.Instance
	s := &hookScheduler{onBcast: func(inst *mac.Instance) {
		if captured == nil && inst.Sender == 1 {
			captured = inst
		}
	}}
	eng := mac.NewEngine(mac.Config{Dual: d1, Fack: 100, Fprog: 10, Scheduler: s, Seed: 1, Arena: a}, floodFleet(4))
	eng.Start()
	eng.Sim().SetHorizon(0)
	eng.Run()
	if captured == nil {
		t.Fatal("no broadcast observed")
	}
	// Poison the pooled record through every slot of its row.
	captured.MarkDelivered(0, 5, true)
	captured.MarkDelivered(2, 0, true)
	if !captured.WasDelivered(0) || !captured.WasDelivered(2) || captured.NumDelivered() != 2 {
		t.Fatal("row marks not recorded")
	}

	d2 := topology.Line(4)
	a.Rebind(d2)
	var fresh *mac.Instance
	s2 := &hookScheduler{onBcast: func(inst *mac.Instance) {
		if fresh == nil && inst.Sender == 1 {
			fresh = inst
		}
	}}
	eng = mac.NewEngine(mac.Config{Dual: d2, Fack: 100, Fprog: 10, Scheduler: s2, Seed: 1, Arena: a}, floodFleet(4))
	eng.Start()
	eng.Sim().SetHorizon(0)
	eng.Run()
	if fresh == nil {
		t.Fatal("no broadcast observed after rebind")
	}
	if fresh != captured {
		t.Fatal("instance record was not recycled — the leak path is untested")
	}
	for v := 0; v < 4; v++ {
		if fresh.WasDelivered(mac.NodeID(v)) {
			t.Fatalf("delivery state leaked across Rebind: node %d reads delivered", v)
		}
	}
	if fresh.NumDelivered() != 0 || fresh.AllReliableDelivered() {
		t.Fatalf("recycled instance reports %d deliveries, all reliable delivered %v",
			fresh.NumDelivered(), fresh.AllReliableDelivered())
	}
}
