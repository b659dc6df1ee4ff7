package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/scenario"
)

// writeScenario dumps the flag-assembled ring scenario to a temp file, the
// same way a user graduates a flag invocation into a scenario file.
func writeScenario(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-dump"), &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioFileRuns(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "solved     : true") {
		t.Fatalf("report missing solved line:\n%s", out.String())
	}
}

// TestScenarioContentFlagConflicts pins the conflict contract: a scenario
// *content* flag given alongside -scenario must error instead of being
// silently ignored (the file, not the flag, owns the scenario contents).
func TestScenarioContentFlagConflicts(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	for _, args := range [][]string{
		{"-scenario", path, "-topology", "line"},
		{"-scenario", path, "-n", "64"},
		{"-scenario", path, "-alg", "fmmb"},
		{"-scenario", path, "-sched", "random"},
		{"-scenario", path, "-rel", "0.9"},
		{"-scenario", path, "-fprog", "20"},
		{"-scenario", path, "-fack", "400"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("args %v: want conflict error, got success", args[2:])
			continue
		}
		if !strings.Contains(err.Error(), "conflicts with -scenario") {
			t.Errorf("args %v: error %q does not name the conflict", args[2:], err)
		}
	}
}

// TestScenarioRunOptionFlagsMerge pins the documented precedence: run-option
// flags (seed, trials, parallel, check) override the file, so one saved
// scenario serves quick looks and Monte-Carlo runs.
func TestScenarioRunOptionFlagsMerge(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	if err := run([]string{"-scenario", path, "-trials", "3", "-seed", "9", "-parallel", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rep := out.String()
	if !strings.Contains(rep, "trials     : 3 seeds starting at 9") {
		t.Fatalf("run options not merged over the file:\n%s", rep)
	}
}

func TestScenarioExplicitZeroSeedRejected(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	err := run([]string{"-scenario", path, "-seed", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-seed must be non-zero") {
		t.Fatalf("want explicit-zero-seed error, got %v", err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	var first bytes.Buffer
	if err := run([]string{"-topology", "ring", "-n", "12", "-k", "2", "-dump"}, &first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run([]string{"-scenario", path, "-dump"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("dump of a loaded scenario diverged:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestReadTraceDecodesStreamedRun drives the full streaming loop a large-n
// user runs: a scenario with run.trace_file, then -read-trace over the file
// it produced. The summary must report the events of that execution, and
// the flag must refuse to combine with -scenario.
func TestReadTraceDecodesStreamedRun(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2", "-check=false")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pattern := filepath.Join(dir, "ring.amtr")
	patched := strings.Replace(string(raw), `"run": {`,
		`"run": {"trace": "stream", "trace_file": `+strconv.Quote(pattern)+`, `, 1)
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatalf("streamed run: %v\n%s", err, out.String())
	}

	out.Reset()
	traceFile := filepath.Join(dir, "ring.s1.amtr")
	if err := run([]string{"-read-trace", traceFile}, &out); err != nil {
		t.Fatalf("read-trace: %v\n%s", err, out.String())
	}
	for _, want := range []string{"events     : ", "bcast", "deliver"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}

	if err := run([]string{"-read-trace", traceFile, "-scenario", path}, &out); err == nil {
		t.Fatal("-read-trace with -scenario accepted")
	}
}

// TestHeaderDiameterAroundCutoff pins the report header's diameter: exact
// (D=) up to graph.ExactDiameterCutoff nodes and a sampled lower bound (D≥)
// just above it, where the exact O(n·m) computation used to stall amacsim
// on large networks.
func TestHeaderDiameterAroundCutoff(t *testing.T) {
	for _, n := range []int{graph.ExactDiameterCutoff, graph.ExactDiameterCutoff + 64} {
		args := []string{"-topology", "rgg", "-n", strconv.Itoa(n), "-k", "2", "-check=false"}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("n=%d: run: %v\n%s", n, err, out.String())
		}
		spec, err := specFromFlags("rgg", n, 2, 2, "bmmb", "", 0.5, 0, 10, 200, 1, 1, false, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		built, err := scenario.BuildTopology(spec, spec.Run.Seed)
		if err != nil {
			t.Fatal(err)
		}
		exact := built.Dual.G.Diameter()
		header := strings.SplitN(out.String(), "\n", 2)[0]
		m := regexp.MustCompile(`, D(=|≥)(\d+),`).FindStringSubmatch(header)
		if m == nil {
			t.Fatalf("n=%d: no diameter in header %q", n, header)
		}
		got, _ := strconv.Atoi(m[2])
		if n <= graph.ExactDiameterCutoff {
			if m[1] != "=" || got != exact {
				t.Fatalf("n=%d: header %q, want exact D=%d", n, header, exact)
			}
		} else if m[1] != "≥" || got < 1 || got > exact {
			t.Fatalf("n=%d: header %q, want a lower bound D≥ on the exact %d", n, header, exact)
		}
	}
}

// TestStatsNeedsMemoryTrace pins -stats on runs that keep no in-memory
// trace (trace modes off and stream): per-node metrics replay the recorded
// trace, so the report must fail with an error naming trace mode memory
// instead of dereferencing the missing trace.
func TestStatsNeedsMemoryTrace(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "16", "-k", "2", "-check=false")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := `"trace": "stream", "trace_file": ` + strconv.Quote(filepath.Join(t.TempDir(), "ring.amtr")) + `, `
	for _, mode := range []string{`"trace": "off", `, stream} {
		patched := strings.Replace(string(raw), `"run": {`, `"run": {`+mode, 1)
		if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run([]string{"-scenario", path, "-stats"}, &out)
		if err == nil || !strings.Contains(err.Error(), `trace mode "memory"`) {
			t.Fatalf("run {%s}: want an error naming trace mode memory, got %v\n%s", mode, err, out.String())
		}
	}
}

// TestViolationsFailTheRun pins amacsim's verdict on runs that broke a
// guarantee: single-trial and multi-trial reports alike print every
// model-check and MMB violation and return an error, while clean reports
// return nil. The reports are synthetic, so every combination is covered
// without provoking a faulty execution.
func TestViolationsFailTheRun(t *testing.T) {
	clean := func() *core.Result {
		return &core.Result{Solved: true, CompletionTime: 40, Delivered: 4, Required: 4, Report: &check.Report{}}
	}
	modelBroken := clean()
	modelBroken.Report.Violations = []check.Violation{
		{Property: "ack bound", Detail: "instance 3 acked at 420"},
		{Property: "progress bound", Detail: "node 5 starved over [10, 31]"},
	}
	mmbBroken := clean()
	mmbBroken.MMBViolations = []string{"node 2 delivered m0 twice", "node 7 delivered m1 unsolicited"}
	for _, tc := range []struct {
		name   string
		trials []*core.Result
		broken *core.Result // the violating trial, nil for a clean report
	}{
		{"single clean", []*core.Result{clean()}, nil},
		{"single model violation", []*core.Result{modelBroken}, modelBroken},
		{"single MMB violation", []*core.Result{mmbBroken}, mmbBroken},
		{"trials clean", []*core.Result{clean(), clean()}, nil},
		{"trials model violation", []*core.Result{clean(), modelBroken}, modelBroken},
		{"trials MMB violation", []*core.Result{mmbBroken, clean()}, mmbBroken},
	} {
		rep := &scenario.Report{Spec: scenario.Spec{
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Model:     scenario.ModelSpec{Fprog: 10, Fack: 200},
			Run:       scenario.RunSpec{Seed: 1, Trials: len(tc.trials)},
		}}
		for i, res := range tc.trials {
			rep.Trials = append(rep.Trials, &scenario.TrialResult{
				Seed:          int64(1 + i),
				Network:       scenario.Network{Name: "ring(8)", N: 8, Edges: 8, Diameter: 4},
				K:             2,
				SchedulerName: "sync",
				Result:        res,
			})
		}
		var out bytes.Buffer
		err := printReport(&out, rep, false, false)
		if tc.broken == nil {
			if err != nil {
				t.Errorf("%s: clean report failed: %v\n%s", tc.name, err, out.String())
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: violating report returned no error\n%s", tc.name, out.String())
		}
		var want []string
		for _, v := range tc.broken.Report.Violations {
			want = append(want, v.Error())
		}
		want = append(want, tc.broken.MMBViolations...)
		for _, w := range want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: report does not print violation %q\n%s", tc.name, w, out.String())
			}
		}
	}
}
