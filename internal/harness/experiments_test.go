package harness

import (
	"fmt"
	"strings"
	"testing"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/scenario"
)

func quickOpts() Options {
	return Options{Quick: true, Trials: 2, Seed: 3}
}

// requireHolds fails unless every shape verdict in the table says HOLDS and
// none says VIOLATED.
func requireHolds(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", tab.ID)
	}
	sawVerdict := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Fatalf("%s: %s\n%s", tab.ID, n, tab.String())
		}
		if strings.Contains(n, "HOLDS") {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatalf("%s: no verdict note\n%s", tab.ID, tab.String())
	}
}

func TestFig1StdReliable(t *testing.T) {
	requireHolds(t, Fig1StdReliable(quickOpts()))
}

func TestFig1StdRRestricted(t *testing.T) {
	requireHolds(t, Fig1StdRRestricted(quickOpts()))
}

func TestFig1StdArbitrary(t *testing.T) {
	requireHolds(t, Fig1StdArbitrary(quickOpts()))
}

func TestFig2LowerBound(t *testing.T) {
	requireHolds(t, Fig2LowerBound(quickOpts()))
}

func TestFig1EnhGreyZone(t *testing.T) {
	requireHolds(t, Fig1EnhGreyZone(quickOpts()))
}

func TestAblationFackRatio(t *testing.T) {
	requireHolds(t, AblationFackRatio(quickOpts()))
}

// TestAblationFackRatioRunsThroughSweeper: the ablation submits its whole
// spec grid (BMMB and FMMB per ratio) through Options.Sweeper, so
// amacbench -server runs it on the daemon, and the table is the same as the
// in-process one.
func TestAblationFackRatioRunsThroughSweeper(t *testing.T) {
	var ids []string
	var specs int
	o := quickOpts()
	o.Sweeper = func(id string, s []scenario.Spec, so scenario.SweepOptions) ([]*scenario.Report, error) {
		ids = append(ids, id)
		specs += len(s)
		return scenario.SweepWithOptions(s, so)
	}
	got := AblationFackRatio(o).String()
	if len(ids) != 1 || ids[0] != "ablation-bmmb-vs-fmmb" || specs != 2*3 {
		t.Fatalf("sweeper saw ids %v with %d specs, want one ablation-bmmb-vs-fmmb sweep of 6", ids, specs)
	}
	if want := AblationFackRatio(quickOpts()).String(); got != want {
		t.Fatalf("table through the sweeper:\n%s\nwant:\n%s", got, want)
	}
}

// TestMustSweepFailsFast pins the harness's fail-fast contract through an
// Options.Sweeper stub returning synthetic reports: a trial that did not
// solve, broke a model guarantee or broke an MMB condition panics with a
// message naming the experiment, the network, the seed and the fault, and a
// clean trial passes. With checking off, the MMB violations are the only
// record of a duplicate or unsolicited deliver.
func TestMustSweepFailsFast(t *testing.T) {
	clean := func() *core.Result { return &core.Result{Solved: true, Report: &check.Report{}} }
	unsolved := clean()
	unsolved.Solved = false
	model := clean()
	model.Report.Violations = []check.Violation{{Property: "ack bound", Detail: "instance 3 acked late"}}
	mmb := &core.Result{Solved: true, MMBViolations: []string{"node 2 delivered m0 twice"}}
	for _, tc := range []struct {
		name string
		res  *core.Result
		want string // a fragment of the panic, empty when none is expected
	}{
		{"clean", clean(), ""},
		{"unsolved", unsolved, "bmmb failed on ring(8) seed 5"},
		{"model violation", model, "model violation on ring(8) seed 5: check: ack bound violated: instance 3 acked late"},
		{"MMB violation", mmb, "MMB violation on ring(8) seed 5: node 2 delivered m0 twice"},
	} {
		o := Options{Sweeper: func(string, []scenario.Spec, scenario.SweepOptions) ([]*scenario.Report, error) {
			return []*scenario.Report{{
				Spec: scenario.Spec{Algorithm: scenario.AlgorithmSpec{Name: "bmmb"}},
				Trials: []*scenario.TrialResult{{
					Seed: 5, Network: scenario.Network{Name: "ring(8)", N: 8}, K: 2, Result: tc.res,
				}},
			}}, nil
		}}
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			o.mustSweep("stub-experiment", nil)
			return ""
		}()
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: clean trial panicked: %s", tc.name, got)
		case tc.want != "" && !strings.HasPrefix(got, "harness: stub-experiment: "):
			t.Errorf("%s: panic %q does not name the experiment", tc.name, got)
		case !strings.Contains(got, tc.want):
			t.Errorf("%s: panic %q, want it to contain %q", tc.name, got, tc.want)
		}
	}
}

func TestMISExperiment(t *testing.T) {
	tab := MISExperiment(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty MIS table")
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Fatalf("MIS experiment: %s", n)
		}
	}
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Fatalf("invalid MIS at n=%s", row[0])
		}
	}
}

func TestSubroutineExperiment(t *testing.T) {
	tab := SubroutineExperiment(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty subroutine table")
	}
}

func TestMessageComplexity(t *testing.T) {
	tab := MessageComplexity(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty complexity table")
	}
	for _, row := range tab.Rows {
		// The flooding invariant: BMMB broadcasts = n·k exactly.
		if row[3] != "1.00" {
			t.Fatalf("BMMB broadcast ratio %s != 1.00 (row %v)", row[3], row)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:         "x",
		Title:      "demo",
		PaperClaim: "O(1)",
		Columns:    []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"## x — demo", "paper: O(1)", "a", "bb", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("row/column mismatch did not panic")
		}
	}()
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow("1", "2")
}
