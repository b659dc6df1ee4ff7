package scenario_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/scenario"
	"amac/internal/sched"
	"amac/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files under testdata/golden")

// goldenSpec returns the fixed-seed scenario pinned for one scheduler
// family. Every spec pins its topology seed, so the execution — and hence
// the recorded trace — is a pure function of this file.
func goldenSpec(schedName string) (scenario.Spec, bool) {
	rline := scenario.TopologySpec{
		Name:   "rline",
		Params: topology.Params{"n": 12, "r": 2, "p": 0.6},
		Seed:   7,
	}
	base := scenario.Spec{
		Topology:  rline,
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 3},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Model:     scenario.ModelSpec{Fprog: 10, Fack: 200},
		Run:       scenario.RunSpec{Seed: 5, Check: true},
	}
	switch schedName {
	case "sync":
		base.Scheduler = scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}}
	case "random":
		base.Scheduler = scenario.SchedulerSpec{Name: "random", Params: topology.Params{"rel": 0.5}}
	case "contention":
		base.Scheduler = scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}}
	case "slot":
		base.Algorithm = scenario.AlgorithmSpec{Name: "fmmb"}
		base.Workload = scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 2}
		base.Scheduler = scenario.SchedulerSpec{Name: "slot"}
	case "adversary":
		base.Topology = scenario.TopologySpec{
			Name:   "parallel-lines",
			Params: topology.Params{"d": 4},
			Seed:   1,
		}
		base.Workload = scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction}
		base.Scheduler = scenario.SchedulerSpec{Name: "adversary"}
	default:
		return scenario.Spec{}, false
	}
	return base, true
}

// TestGoldenTraces pins the full event trace of one fixed-seed execution per
// registered scheduler family. The traces were recorded on the closure-based
// event path; the typed-dispatch engine must replay them byte-for-byte, so
// any scheduling-order or timing drift in the simulator core fails here with
// a line-level diff. Run with -update to re-record after an intentional
// semantic change (e.g. a scheduler bugfix).
func TestGoldenTraces(t *testing.T) {
	for _, name := range sched.Names() {
		spec, ok := goldenSpec(name)
		if !ok {
			t.Errorf("no golden scenario for registered scheduler %q — extend goldenSpec", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			got := goldenRun(t, spec)

			path := filepath.Join("testdata", "golden", name+".trace")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/scenario -run GoldenTraces -update`): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverged from golden %s\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// goldenRun executes spec and renders the golden trace format. The run
// must be clean under both MMB checkers: the runner's online watcher and
// check.MMB's replay of the recorded trace.
func goldenRun(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	rep, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr := rep.Trials[0]
	if !tr.Result.Solved {
		t.Fatalf("golden scenario unsolved: %d/%d deliveries", tr.Result.Delivered, tr.Result.Required)
	}
	if tr.Result.Report != nil && !tr.Result.Report.OK() {
		t.Fatalf("model violation: %v", tr.Result.Report.Violations[0])
	}
	if len(tr.Result.MMBViolations) > 0 {
		t.Fatalf("MMB violations: %v", tr.Result.MMBViolations)
	}
	mmb := &check.Report{}
	check.MMB(mmb, tr.Result.Trace.Events(), check.MMBParams{DeliverKind: core.DeliverKind})
	if !mmb.OK() {
		t.Fatalf("check.MMB: %v", mmb.Violations)
	}
	return fmt.Sprintf("# scheduler=%s solved@%d steps=%d broadcasts=%d\n%s",
		tr.SchedulerName, tr.Result.CompletionTime, tr.Result.Steps,
		tr.Result.Broadcasts, tr.Result.Trace.String())
}

// TestGoldenTracesSharded re-runs every golden scenario through the
// decomposed executor at shards 1 and 4. The golden networks are connected,
// where the decomposed semantics coincides with the single-engine execution
// exactly — so the sharded traces must stay byte-identical to the same
// golden files, at every shard count.
func TestGoldenTracesSharded(t *testing.T) {
	for _, name := range sched.Names() {
		spec, ok := goldenSpec(name)
		if !ok {
			continue
		}
		for _, shards := range []int{1, 4} {
			spec := spec
			spec.Run.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				got := goldenRun(t, spec)
				path := filepath.Join("testdata", "golden", name+".trace")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file: %v", err)
				}
				if got != string(want) {
					t.Fatalf("sharded trace diverged from golden %s\n%s", path, firstDiff(string(want), got))
				}
			})
		}
	}
}

// firstDiff renders the first differing line between two trace texts.
func firstDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
