package core

import (
	"strings"
	"testing"

	"amac/internal/graph"
	"amac/internal/sched"
	"amac/internal/topology"
)

// validRunConfig is a minimal valid configuration the rejection cases
// mutate one field at a time.
func validRunConfig() RunConfig {
	n := 4
	return RunConfig{
		Dual:       topology.Line(n),
		Fack:       200,
		Fprog:      10,
		Scheduler:  &sched.Sync{},
		Assignment: SingleSource(n, 0, 1),
		Automata:   NewBMMBFleet(n),
	}
}

// TestRunConfigValidateRejections covers every condition that used to panic
// inside Run (and the engine constructor beneath it): each malformed field
// must produce a descriptive error from Validate and an error — not a panic
// — from Run.
func TestRunConfigValidateRejections(t *testing.T) {
	base := validRunConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*RunConfig)
		wantSub string
	}{
		{"nil dual", func(c *RunConfig) { c.Dual = nil }, "Dual is required"},
		{"invalid dual", func(c *RunConfig) {
			c.Dual = &topology.Dual{G: graph.New(4), GPrime: graph.New(3), Name: "broken"}
		}, "invalid dual"},
		{"nil scheduler", func(c *RunConfig) { c.Scheduler = nil }, "Scheduler is required"},
		{"fprog too small", func(c *RunConfig) { c.Fprog = 1 }, "Fprog must be >= 2"},
		{"fack below fprog", func(c *RunConfig) { c.Fack = 5 }, "must be >= Fprog"},
		{"negative eps abort", func(c *RunConfig) { c.EpsAbort = -1 }, "EpsAbort must be >= 0"},
		{"short assignment", func(c *RunConfig) { c.Assignment = c.Assignment[:2] }, "assignment covers 2 of 4 nodes"},
		{"wrong automata count", func(c *RunConfig) { c.Automata = c.Automata[:3] }, "3 automata for 4 nodes"},
		{"nil automaton", func(c *RunConfig) { c.Automata[2] = nil }, "nil automaton for node 2"},
		{"empty workload", func(c *RunConfig) { c.Assignment = make(Assignment, 4) }, "empty workload"},
		{"arrival out of range", func(c *RunConfig) {
			w := &Workload{}
			w.Add(0, 9, Msg{ID: 0, Origin: 9})
			c.Workload = w
		}, "outside [0,4)"},
		{"origin mismatch", func(c *RunConfig) {
			w := &Workload{}
			w.Add(0, 1, Msg{ID: 0, Origin: 2})
			c.Workload = w
		}, "contradicts its origin"},
		{"G edge missing from G'", func(c *RunConfig) {
			c.Dual = &topology.Dual{G: topology.Line(4).G, GPrime: graph.New(4), Name: "not-a-subgraph"}
		}, "invalid dual"},
		{"duplicate message ID", func(c *RunConfig) {
			w := &Workload{}
			w.Add(0, 0, Msg{ID: 0, Origin: 0})
			w.Add(5, 3, Msg{ID: 0, Origin: 3})
			c.Workload = w
		}, "message ID 0 is used twice"},
		{"negative message ID", func(c *RunConfig) {
			w := &Workload{}
			w.Add(0, 0, Msg{ID: -1, Origin: 0})
			c.Workload = w
		}, "ID -1 outside 0..0"},
		{"message ID not below k", func(c *RunConfig) {
			c.Assignment = Assignment{{{ID: 0, Origin: 0}}, nil, {{ID: 2, Origin: 2}}, nil}
		}, "ID 2 outside 0..1"},
	}
	for _, tc := range cases {
		cfg := validRunConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
		res, runErr := Run(cfg)
		if runErr == nil || res != nil {
			t.Errorf("%s: Run did not propagate the validation error", tc.name)
		}
	}
}

// TestMustRunPanicsOnInvalid pins the fail-fast wrapper contract.
func TestMustRunPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic on an invalid config")
		}
	}()
	cfg := validRunConfig()
	cfg.Dual = nil
	MustRun(cfg)
}

// TestRunValidConfigSolves asserts the error-returning Run still executes
// valid configurations end to end.
func TestRunValidConfigSolves(t *testing.T) {
	res, err := Run(validRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("valid config unsolved: %d/%d", res.Delivered, res.Required)
	}
}

// TestInvalidDualEntryPoints pins how a runner rejects a dual
// topology.NewDual did not make: NewRunner and Rebind panic with the error
// Run reports, NewRunnerChecked returns it, and a runner's runs on its own
// dual still solve.
func TestInvalidDualEntryPoints(t *testing.T) {
	bad := &topology.Dual{G: topology.Line(4).G, GPrime: graph.New(4), Name: "not-a-subgraph"}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s accepted an invalid dual", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, "core: invalid dual") {
				t.Fatalf("%s panicked with %v, want the invalid-dual error", name, r)
			}
		}()
		f()
	}
	mustPanic("NewRunner", func() { NewRunner(bad) })
	rn := NewRunner(topology.Line(4))
	mustPanic("Rebind", func() { rn.Rebind(bad) })
	if _, err := NewRunnerChecked(bad); err == nil || !strings.Contains(err.Error(), "core: invalid dual") {
		t.Fatalf("NewRunnerChecked returned %v, want the invalid-dual error", err)
	}
	cfg := validRunConfig()
	rn = NewRunner(cfg.Dual)
	for i := 0; i < 2; i++ {
		res, err := rn.Run(cfg)
		if err != nil || !res.Solved {
			t.Fatalf("run %d on the runner's own dual: %v", i, err)
		}
		for _, a := range cfg.Automata {
			a.(*BMMB).Reset()
		}
	}
}
