package scenario

import (
	"strings"
	"testing"

	"amac/internal/core"
	"amac/internal/topology"
)

// TestRunSpecTraceMode walks the normalization table for the "run" block's
// trace surface: the explicit "trace" mode, its trace_file pairing, and
// every illegal combination.
func TestRunSpecTraceMode(t *testing.T) {
	cases := []struct {
		name string
		run  RunSpec
		mode core.TraceMode
		want string // substring of the error, "" = valid
	}{
		{"default", RunSpec{}, core.TraceMemory, ""},
		{"explicit memory", RunSpec{Trace: "memory"}, core.TraceMemory, ""},
		{"explicit off", RunSpec{Trace: "off"}, core.TraceOff, ""},
		{"explicit stream", RunSpec{Trace: "stream", TraceFile: "t.jsonl"}, core.TraceStream, ""},
		{"memory+check", RunSpec{Trace: "memory", Check: true}, core.TraceMemory, ""},
		// Illegal combinations.
		{"unknown mode", RunSpec{Trace: "ndjson"}, 0, "unknown trace mode"},
		{"check+off", RunSpec{Trace: "off", Check: true}, 0, "check requires trace=memory"},
		{"check+stream", RunSpec{Trace: "stream", TraceFile: "t.jsonl", Check: true}, 0, "check requires trace=memory"},
		{"stream without file", RunSpec{Trace: "stream"}, 0, "requires trace_file"},
		{"file without stream", RunSpec{Trace: "memory", TraceFile: "t.jsonl"}, 0, "trace_file requires trace=stream"},
		{"bare trace_file", RunSpec{TraceFile: "t.jsonl"}, 0, "trace_file requires trace=stream"},
		{"bare trace_file+check", RunSpec{TraceFile: "t.jsonl", Check: true}, 0, "trace_file requires trace=stream"},
	}
	for _, tc := range cases {
		mode, err := tc.run.TraceMode()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if mode != tc.mode {
				t.Errorf("%s: mode %v, want %v", tc.name, mode, tc.mode)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestRunSpecParallelKeysRoundTrip pins JSON parity for the run-block keys
// "trace" and "shards": they survive a marshal/parse round trip, so the
// JSON surface cannot drift from the Go surface.
func TestRunSpecParallelKeysRoundTrip(t *testing.T) {
	spec := Spec{
		Name:      "parallel",
		Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 16}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Run:       RunSpec{Seed: 1, Trace: "off", Shards: 4},
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"trace": "off"`, `"shards": 4`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshaled spec is missing %s:\n%s", key, data)
		}
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Run.Trace != "off" || back.Run.Shards != 4 {
		t.Fatalf("round trip lost parallel keys: %+v", back.Run)
	}
	if err := back.WithDefaults().Validate(); err != nil {
		t.Fatalf("round-tripped spec invalid: %v", err)
	}
}

// TestRunSpecValidateParallel pins the validation rules for the shards
// knob at the scenario surface.
func TestRunSpecValidateParallel(t *testing.T) {
	base := Spec{
		Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 8}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 1},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Run:       RunSpec{Seed: 1},
	}
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"negative shards", func(s *Spec) { s.Run.Shards = -1 }, "negative shards"},
	}
	for _, tc := range cases {
		spec := base
		tc.edit(&spec)
		err := spec.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestScenarioShardedWarmMatchesCold extends the unpinned warm/cold
// byte-identity guarantee to shards>1: the decomposed executor behind the
// scenario surface must agree with the cold Trial path trace-for-trace on
// warm per-worker state, exactly as the single-engine path does.
func TestScenarioShardedWarmMatchesCold(t *testing.T) {
	for _, spec := range unpinnedSpecs(1) {
		spec.Run.Shards = 2
		t.Run(spec.Name, func(t *testing.T) {
			r := spec.WithDefaults()
			warm, err := newSpecRun(r, 1)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 4; seed++ {
				cold, err := Trial(spec, seed)
				if err != nil {
					t.Fatalf("cold trial seed %d: %v", seed, err)
				}
				want := trialSnapshot(cold)
				tr, err := warm.trial(seed, 0)
				if err != nil {
					t.Fatalf("warm trial seed %d: %v", seed, err)
				}
				if got := trialSnapshot(tr); got != want {
					t.Fatalf("sharded warm trial seed %d diverged from cold:\nwarm:\n%.400s\ncold:\n%.400s",
						seed, got, want)
				}
			}
		})
	}
}

// TestParseRejectsRemovedRunKeys pins that the retired run keys — the
// deprecated "no_trace", the "no_arena" escape hatch and the windowed
// executor's "regions" — are unknown fields, so an old scenario file fails
// loudly instead of silently running with different options.
func TestParseRejectsRemovedRunKeys(t *testing.T) {
	spec := func(run string) []byte {
		return []byte(`{"topology": {"name": "line", "params": {"n": 8}},
			"workload": {"kind": "singleton", "k": 1},
			"algorithm": {"name": "bmmb"}, "run": {` + run + `}}`)
	}
	if _, err := Parse(spec(`"seed": 1`)); err != nil {
		t.Fatalf("control spec rejected: %v", err)
	}
	for _, run := range []string{`"no_trace": true`, `"no_arena": true`, `"regions": 2`} {
		_, err := Parse(spec(run))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("run {%s}: want an unknown-field error, got %v", run, err)
		}
	}
}
