package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the parent under test start this test binary as its child
// processes, exactly as the built benchmark starts itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out of root
		{Name: "a1", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,50] ∪ [90,100] of its children.
	want := []int64{50, 14, 30, 30, 6, 10}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{5, 1, 3}, 1); q != 5 {
		t.Errorf("p100 = %v, want 5", q)
	}
	if quantile(nil, 0.95) != 0 || median(nil) != 0 {
		t.Error("a layer without samples should read 0")
	}
}

// smallOutcomes runs a workload's reduced-size call and returns its
// verified outcomes.
func smallOutcomes(t *testing.T, name string, seed int64) []trialOutcome {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	reps, _, err := w.call(w.specs(seed, true, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(reps)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestTamperedRecordFails(t *testing.T) {
	outs := smallOutcomes(t, "sweep-checked", 3)
	d := &parent{recorded: records(outs), stderr: &bytes.Buffer{}}
	d.tally(outs)
	if d.failed != 0 || d.attempted != len(outs) {
		t.Fatalf("untampered: %d of %d failed", d.failed, d.attempted)
	}
	d.recorded[2].Completion++
	d.tally(outs)
	if d.failed != 1 {
		t.Fatalf("a tampered recorded completion time gave %d failures, want 1", d.failed)
	}
}

func TestUnsolvedTrialFails(t *testing.T) {
	outs := smallOutcomes(t, "fmmb-enhanced", 3)
	d := &parent{stderr: &bytes.Buffer{}}
	outs[0].Solved = false
	d.tally(outs)
	if d.failed != 1 || d.attempted != 1 {
		t.Fatalf("unsolved trial: %d of %d failed, want 1 of 1", d.failed, d.attempted)
	}
	outs[0].Solved, outs[0].Violations = true, 2
	if failed, _ := verify(outs, nil); failed != 1 {
		t.Fatalf("a trial with check violations gave %d failures, want 1", failed)
	}
	if failed, _ := verify(nil, records(outs)); failed != 1 {
		t.Fatalf("a missing trial gave %d failures, want 1", failed)
	}
}

func TestFlippedTraceByteFails(t *testing.T) {
	w, _ := lookupWorkload("pods-sharded")
	dir := t.TempDir()
	reference := records(smallOutcomes(t, w.name, 3))
	reps, _, err := w.call(w.specs(3, true, dir))
	if err != nil {
		t.Fatal(err)
	}
	files := traceFiles(reps[0])
	b, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(files[1], b, 0o644); err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(reps)
	if err != nil {
		t.Fatal(err)
	}
	failed, reasons := verify(outs, reference)
	if failed != 1 || !strings.Contains(reasons[0], "trace differs") {
		t.Fatalf("a flipped trace byte gave %d failures (%v), want 1", failed, reasons)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	return endToEnd, perLayer
}

// TestSmoke runs the parent end to end on the reduced-size variant of
// every workload, untraced and traced, and checks the result line against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out, errb bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-small", "-workdir", dir, "-spans", dir}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; stderr:\n%s", res, errb.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				slices.Sort(got)
				want = slices.Sorted(slices.Values(want))
				if !slices.Equal(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if trace == "0" && (res.Metrics["wall_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0) {
					t.Fatalf("end-to-end times must be positive: %+v", res.Metrics)
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
