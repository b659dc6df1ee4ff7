package perfrecord

import (
	"os"
	"path/filepath"
	"testing"
)

func sample(ids []string, evps []float64) *File {
	f := &File{GoVersion: "go1.24", Trials: 1, Seed: 1, Quick: true}
	for i, id := range ids {
		f.Experiments = append(f.Experiments, Record{ID: id, EventsPerSec: evps[i], WallSeconds: 1})
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	f := sample([]string{"fig1", "fig2"}, []float64{1e6, 2e6})
	f.GeneratedAt = "2026-07-28T00:00:00Z"
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 2 || got.Experiments[1].EventsPerSec != 2e6 ||
		got.GeneratedAt != f.GeneratedAt || !got.Quick {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
}

// TestLoadIgnoresRetiredFields pins that records written by older tools
// still load: decoding is non-strict, so a retired field such as the
// "no_arena" option flag is skipped rather than rejected.
func TestLoadIgnoresRetiredFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := `{"go_version": "go1.24", "parallelism": 2, "trials": 3, "seed": 1, "no_arena": true,
		"experiments": [{"id": "fig1", "events_per_sec": 1000000}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("record with a retired field rejected: %v", err)
	}
	if got.Parallelism != 2 || len(got.Experiments) != 1 || got.Experiments[0].ID != "fig1" {
		t.Fatalf("record with a retired field mangled: %+v", got)
	}
}

func TestCompareGate(t *testing.T) {
	base := sample([]string{"a", "b", "c", "d"}, []float64{1000, 1000, 1000, 1000})
	cur := sample([]string{"a", "b", "c", "new"}, []float64{900, 840, 1100, 1})
	deltas := Compare(base, cur)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4 (one per baseline experiment)", len(deltas))
	}
	// a: −10% — within a 15% gate. b: −16% — regression. c: faster — fine.
	// d: missing from the new record — always a gate failure.
	wantRegressed := map[string]bool{"a": false, "b": true, "c": false, "d": true}
	for _, d := range deltas {
		if got := d.Regressed(0.15); got != wantRegressed[d.ID] {
			t.Errorf("experiment %s: Regressed(0.15) = %v (ratio %.3f, missing %v), want %v",
				d.ID, got, d.Ratio, d.Missing, wantRegressed[d.ID])
		}
	}
	if !deltas[3].Missing {
		t.Error("experiment d should be flagged missing")
	}
	// A tighter gate catches the 10% drop too.
	if !deltas[0].Regressed(0.05) {
		t.Error("experiment a should regress a 5% gate")
	}
}

func TestNoisyGuard(t *testing.T) {
	base := sample([]string{"a", "b"}, []float64{1000, 1000})
	cur := sample([]string{"a", "b"}, []float64{500, 500})
	base.Experiments[0].WallSeconds = 0.002 // ms-scale: events/sec is noise
	deltas := Compare(base, cur)
	if !deltas[0].Noisy(0.05) || deltas[1].Noisy(0.05) {
		t.Fatalf("Noisy(0.05) = (%v, %v), want (true, false)", deltas[0].Noisy(0.05), deltas[1].Noisy(0.05))
	}
	// A missing experiment is a hard failure, never excused as noise.
	cur2 := sample([]string{"b"}, []float64{1000})
	if d := Compare(base, cur2)[0]; d.Noisy(0.05) || !d.Regressed(0.15) {
		t.Fatalf("missing experiment must gate regardless of wall time: %+v", d)
	}
}

func TestNormalize(t *testing.T) {
	r := Record{Allocs: 1000, AllocBytes: 64000, SimEvents: 500}
	r.Normalize()
	if r.AllocsPerOp != 2 || r.BytesPerOp != 128 {
		t.Fatalf("Normalize: allocs/op=%v bytes/op=%v, want 2 and 128", r.AllocsPerOp, r.BytesPerOp)
	}
	var empty Record
	empty.Normalize()
	if empty.AllocsPerOp != 0 || empty.BytesPerOp != 0 {
		t.Fatalf("Normalize with no events must stay zero: %+v", empty)
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := sample([]string{"a", "b", "c", "d"}, []float64{1000, 1000, 1000, 1000})
	cur := sample([]string{"a", "b", "c", "d"}, []float64{1000, 1000, 1000, 1000})
	// a: +10% allocs/event — within a 15% gate. b: +30% — regression.
	// c: improved — fine. d: zero baseline (pre-field record) — ungated
	// even though the new record allocates.
	for i, per := range []float64{10, 10, 10, 0} {
		base.Experiments[i].AllocsPerOp = per
	}
	for i, per := range []float64{11, 13, 5, 40} {
		cur.Experiments[i].AllocsPerOp = per
	}
	deltas := Compare(base, cur)
	want := map[string]bool{"a": false, "b": true, "c": false, "d": false}
	for _, d := range deltas {
		if got := d.AllocRegressed(0.15); got != want[d.ID] {
			t.Errorf("experiment %s: AllocRegressed(0.15) = %v (ratio %.3f), want %v",
				d.ID, got, d.AllocRatio, want[d.ID])
		}
		if d.Regressed(0.15) {
			t.Errorf("experiment %s: allocation growth must not trip the throughput gate", d.ID)
		}
	}
	// A missing experiment fails via Regressed, not the alloc gate.
	cur2 := sample([]string{"b", "c", "d"}, []float64{1000, 1000, 1000})
	if d := Compare(base, cur2)[0]; d.AllocRegressed(0.15) || !d.Regressed(0.15) {
		t.Fatalf("missing experiment should gate via Regressed only: %+v", d)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := sample([]string{"a"}, []float64{0})
	cur := sample([]string{"a"}, []float64{0})
	if d := Compare(base, cur)[0]; d.Regressed(0.15) {
		t.Fatalf("zero-throughput baseline must not divide by zero into a regression: %+v", d)
	}
}
