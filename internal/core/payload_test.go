package core

import (
	"math/rand"
	"testing"

	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// TestPayloadRoundTripAllKinds is the property test behind the typed-payload
// encoding: for every payload kind this package registers, random values
// must (a) encode to a registered kind, not a built-in one, and (b) box back
// via Payload.Value() to exactly the dynamic value the old `any` path
// carried, so rendered traces and watcher callbacks are byte-identical to
// the boxed representation. A new payload type that borrows a built-in kind
// fails (a); an encoder/boxer mismatch (dropped field, swapped operand)
// fails (b).
func TestPayloadRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		m := Msg{ID: rng.Intn(1 << 30), Origin: mac.NodeID(rng.Intn(1 << 20))}
		from := mac.NodeID(rng.Intn(1 << 20))
		cases := []struct {
			name  string
			p     mac.Payload
			boxed any
		}{
			{"msg", m.Payload(), m},
			{"poll", pollPayload{From: from}.payload(), pollPayload{From: from}},
			{"gather-msg", gatherMsgPayload{M: m, From: from}.payload(), gatherMsgPayload{M: m, From: from}},
			{"gather-ack", gatherAckPayload{M: m, From: from}.payload(), gatherAckPayload{M: m, From: from}},
			{"spread", spreadPayload{M: m, From: from}.payload(), spreadPayload{M: m, From: from}},
			{"elect", electPayload{Bits: rng.Uint64(), Phase: rng.Intn(64)}.payload(),
				electPayload{}},
			{"announce", announcePayload{From: from}.payload(), announcePayload{From: from}},
		}
		// elect carries a uint64 through an int64 operand; rebuild the
		// expected value from the encoded payload to keep the case table
		// simple while still checking the reinterpretation is lossless.
		cases[5].boxed = electPayload{Bits: uint64(cases[5].p.A), Phase: int(cases[5].p.B)}
		if bits := rng.Uint64() | 1<<63; true {
			e := electPayload{Bits: bits, Phase: 3}
			if got := e.payload().Value().(electPayload); got != e {
				t.Fatalf("elect with the high bit set did not round-trip: %+v -> %+v", e, got)
			}
		}
		for _, tc := range cases {
			if tc.p.Kind == sim.PayloadNone || tc.p.Kind == sim.PayloadInt {
				t.Fatalf("%s: encoded to built-in kind %d, not a registered kind", tc.name, tc.p.Kind)
			}
			if got := tc.p.Value(); got != tc.boxed {
				t.Fatalf("%s: Value() = %#v, want %#v", tc.name, got, tc.boxed)
			}
		}
	}
}

// TestPayloadTagsGolden pins the payload tag numbers: streamed AMTR traces
// record them, so renumbering a kind (registering a new one ahead of these,
// or reordering them) changes the bytes of every recorded trace.
func TestPayloadTagsGolden(t *testing.T) {
	got := []sim.PayloadKind{sim.PayloadInt, msgKind, pollKind, gatherMsgKind, gatherAckKind,
		spreadKind, electKind, announceKind}
	for i, k := range got {
		if want := sim.PayloadKind(i + 2); k != want {
			t.Fatalf("payload tags = %v, want 2 (PayloadInt) then 3..9 (msgKind..announceKind)", got)
		}
	}
}

// FuzzMsgPayloadRoundTrip fuzzes the Msg encoding end to end: encode, decode
// via both the checked and the panicking decoder, and box back. Msg is the
// one payload that crosses the public API (Arrive, adversary matching), so
// its encoding is load-bearing for everything downstream.
func FuzzMsgPayloadRoundTrip(f *testing.F) {
	f.Add(0, int64(0))
	f.Add(17, int64(3))
	f.Add(-1, int64(1<<31))
	f.Fuzz(func(t *testing.T, id int, origin int64) {
		m := Msg{ID: id, Origin: mac.NodeID(origin)}
		p := m.Payload()
		got, ok := MsgFromPayload(p)
		if !ok || got != m {
			t.Fatalf("MsgFromPayload(%v.Payload()) = %v, %v", m, got, ok)
		}
		if mustMsg(p) != m {
			t.Fatalf("mustMsg round-trip lost %v", m)
		}
		if v := p.Value(); v != any(m) {
			t.Fatalf("Value() = %#v, want %#v", v, m)
		}
		if _, ok := MsgFromPayload(pollPayload{From: 1}.payload()); ok {
			t.Fatal("MsgFromPayload accepted a poll payload")
		}
	})
}

// TestAlgorithmTracesNeverBox executes every registered algorithm and
// renders the full trace: every event's payload must be a kind Value can
// box back, so an algorithm that emits a payload with no registered boxer
// fails here. That payloads hold no boxed value at all is pinned by
// sim.TestPayloadIsPlainData.
func TestAlgorithmTracesNeverBox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := topology.LineRRestricted(10, 2, 0.6, rng)
	for _, name := range AlgorithmNames() {
		alg, ok := LookupAlgorithm(name)
		if !ok {
			t.Fatalf("registered algorithm %q not found", name)
		}
		t.Run(name, func(t *testing.T) {
			k := 2
			automata, err := alg.NewFleet(d, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			var scheduler mac.Scheduler
			env := sched.Env{Dual: d, Fprog: 10, Fack: 200}
			if scheduler, err = sched.Build(alg.DefaultScheduler, env, nil); err != nil {
				t.Fatal(err)
			}
			cfg := RunConfig{
				Dual:             d,
				Fack:             200,
				Fprog:            10,
				Scheduler:        scheduler,
				Mode:             alg.Mode,
				Seed:             4,
				Assignment:       SingleSource(10, 0, k),
				Automata:         automata,
				HaltOnCompletion: true,
			}
			if alg.Horizon != nil {
				cfg.Horizon = alg.Horizon(d, k, 10, nil)
				cfg.StepLimit = alg.StepLimit
			}
			res := MustRun(cfg)
			if !res.Solved {
				t.Fatalf("%s not solved: %d/%d", name, res.Delivered, res.Required)
			}
			events := res.Trace.Events()
			if len(events) == 0 {
				t.Fatal("empty trace")
			}
			for _, ev := range events {
				_ = ev.String()
			}
		})
	}
}
