package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"amac/internal/core"
	"amac/internal/scenario"
)

// trialRecord is the simulated outcome of one trial: everything the
// benchmark compares against the values recorded at the default seed.
// Result.Steps is deliberately absent: event batching may change it
// without changing the execution.
type trialRecord struct {
	Seed       int64 `json:"seed"`
	Solved     bool  `json:"solved"`
	Completion int64 `json:"completion"`
	Broadcasts int   `json:"broadcasts"`
	Delivered  int   `json:"delivered"`
	// Rcvs is Σ Instance.NumDelivered over the run's MAC instances, taken
	// only where the report keeps the engine (single-trial, single-engine
	// runs); 0 elsewhere.
	Rcvs int `json:"rcvs,omitempty"`
	// TraceSHA256 is the SHA-256 of the trial's streamed trace file.
	TraceSHA256 string `json:"trace_sha256,omitempty"`
}

// trialOutcome is a trial record plus the invariant violations found in
// it: model-check violations and MMB-condition violations.
type trialOutcome struct {
	trialRecord
	Violations int `json:"violations"`
}

// engineKept reports whether a report's Result.Engine is still valid after
// the call returned: scenario recycles engines across the trials of one
// worker, and decomposed runs keep none.
func engineKept(rep *scenario.Report) bool {
	return len(rep.Trials) == 1 && rep.Spec.Run.Shards == 0
}

// receptions sums the MAC receptions of a single-engine result.
func receptions(res *core.Result) int {
	n := 0
	for _, in := range res.Engine.Instances() {
		n += in.NumDelivered()
	}
	return n
}

// outcomeOf extracts the verified fields of one trial. rcvs is the
// trial's reception count, or 0 where the engine is not kept.
func outcomeOf(t *scenario.TrialResult, rcvs int) trialOutcome {
	r := t.Result
	v := len(r.MMBViolations)
	if r.Report != nil {
		v += len(r.Report.Violations)
	}
	return trialOutcome{
		trialRecord: trialRecord{
			Seed:       t.Seed,
			Solved:     r.Solved,
			Completion: int64(r.CompletionTime),
			Broadcasts: r.Broadcasts,
			Delivered:  r.Delivered,
			Rcvs:       rcvs,
		},
		Violations: v,
	}
}

// outcomes extracts every trial of the reports in order, hashing and then
// removing each streamed trace file.
func outcomes(reps []*scenario.Report) ([]trialOutcome, error) {
	var out []trialOutcome
	for _, rep := range reps {
		files := traceFiles(rep)
		for i, t := range rep.Trials {
			rcvs := 0
			if engineKept(rep) {
				rcvs = receptions(t.Result)
			}
			o := outcomeOf(t, rcvs)
			if files != nil {
				sum, err := hashFile(files[i])
				if err != nil {
					return nil, err
				}
				o.TraceSHA256 = sum
				if err := os.Remove(files[i]); err != nil {
					return nil, err
				}
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// records drops the invariant counts of outcomes.
func records(outs []trialOutcome) []trialRecord {
	out := make([]trialRecord, len(outs))
	for i, o := range outs {
		out[i] = o.trialRecord
	}
	return out
}

// hashFile returns the hex SHA-256 of a file's bytes.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

//go:embed recorded.json
var recordedJSON []byte

// recordedFor returns the trial records of a workload at the default seed
// and full size, or nil when the run is at any other seed or size.
func recordedFor(name string, seed int64, small bool) ([]trialRecord, error) {
	if seed != defaultSeed || small {
		return nil, nil
	}
	var all map[string][]trialRecord
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		return nil, fmt.Errorf("recorded.json: %w", err)
	}
	return all[name], nil
}

// verify counts the failed trials of one call's outcomes. A trial fails
// when it is not solved, when the checkers or the MMB conditions report a
// violation, or when its record — trace hash included — differs from the
// expected one; want may be nil, at a seed without expected values. A
// missing trial counts as failed. The reasons describe each failure for
// standard error.
func verify(got []trialOutcome, want []trialRecord) (failed int, reasons []string) {
	for i := range max(len(got), len(want)) {
		if why := trialFailure(i, got, want); why != "" {
			failed++
			reasons = append(reasons, fmt.Sprintf("trial %d: %s", i, why))
		}
	}
	return failed, reasons
}

func trialFailure(i int, got []trialOutcome, want []trialRecord) string {
	if i >= len(got) {
		return "missing"
	}
	g := got[i]
	switch {
	case !g.Solved:
		return fmt.Sprintf("seed %d not solved", g.Seed)
	case g.Violations > 0:
		return fmt.Sprintf("seed %d: %d check/MMB violations", g.Seed, g.Violations)
	case want == nil:
		return ""
	case i >= len(want):
		return fmt.Sprintf("seed %d not expected", g.Seed)
	case g.TraceSHA256 != want[i].TraceSHA256:
		return fmt.Sprintf("seed %d: trace differs from the reference trace", g.Seed)
	case g.trialRecord != want[i]:
		return fmt.Sprintf("expected %s, got %s", jsonLine(want[i]), jsonLine(g.trialRecord))
	}
	return ""
}

func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// formatRecorded renders recorded.json with one trial per line, so a diff
// of the file shows which trial changed.
func formatRecorded(all map[string][]trialRecord) []byte {
	var b bytes.Buffer
	b.WriteString("{\n")
	for wi, w := range workloads {
		fmt.Fprintf(&b, "  %q: [\n", w.name)
		recs := all[w.name]
		for i, r := range recs {
			b.WriteString("    " + jsonLine(r))
			if i < len(recs)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  ]")
		if wi < len(workloads)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}
