// Package perfrecord defines the machine-readable perf record amacbench
// writes (BENCH.json) and the comparison logic cmd/benchdiff and the CI
// regression gate run over two such records. It lives below both commands
// so the schema has exactly one definition.
package perfrecord

import (
	"encoding/json"
	"fmt"
	"os"
)

// Record is one experiment's perf sample.
type Record struct {
	ID           string  `json:"id"`
	WallSeconds  float64 `json:"wall_seconds"`
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	// AllocsPerOp and BytesPerOp normalize the totals per simulation event
	// — the experiment's "op" — so the allocation gate is insensitive to
	// how long an experiment happens to run. Zero in records written before
	// the fields existed; Compare treats a zero baseline as ungated.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// Normalize fills the per-op allocation fields from the totals. Records
// with no events are left at zero.
func (r *Record) Normalize() {
	if r.SimEvents == 0 {
		return
	}
	r.AllocsPerOp = float64(r.Allocs) / float64(r.SimEvents)
	r.BytesPerOp = float64(r.AllocBytes) / float64(r.SimEvents)
}

// File is the BENCH.json document: the options the record was taken under
// plus one Record per experiment.
type File struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	Parallelism int      `json:"parallelism"`
	Quick       bool     `json:"quick"`
	Trials      int      `json:"trials"`
	Seed        int64    `json:"seed"`
	Experiments []Record `json:"experiments"`
}

// Load reads and decodes a perf record.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfrecord: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("perfrecord: parse %s: %w", path, err)
	}
	return &f, nil
}

// WriteFile encodes the record as indented JSON with a trailing newline.
func (f *File) WriteFile(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("perfrecord: marshal: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("perfrecord: %w", err)
	}
	return nil
}

// Delta is the throughput comparison of one experiment across two records.
type Delta struct {
	ID string
	// BaseEventsPerSec and NewEventsPerSec are the two samples; Ratio is
	// new/base (1.0 = unchanged, below 1 = slower).
	BaseEventsPerSec float64
	NewEventsPerSec  float64
	Ratio            float64
	// BaseWallSeconds and NewWallSeconds carry the sample durations so
	// gates can refuse to judge millisecond-scale experiments, whose
	// events/sec is dominated by scheduler noise.
	BaseWallSeconds float64
	NewWallSeconds  float64
	// BaseAllocsPerOp and NewAllocsPerOp are the per-event allocation
	// samples; AllocRatio is new/base (1.0 = unchanged, above 1 = more
	// allocation per event). Zero baselines — records written before the
	// per-op fields existed, or experiments with no events — leave
	// AllocRatio at 1 so old baselines never gate on allocations.
	BaseAllocsPerOp float64
	NewAllocsPerOp  float64
	AllocRatio      float64
	// Missing marks an experiment present in the baseline but absent from
	// the new record — a gate failure regardless of threshold, since a
	// silently dropped experiment would otherwise launder a regression.
	Missing bool
}

// Noisy reports whether either sample ran shorter than minWall seconds —
// too fast for its events/sec to mean anything. Gates report such deltas
// without judging them.
func (d Delta) Noisy(minWall float64) bool {
	return !d.Missing && (d.BaseWallSeconds < minWall || d.NewWallSeconds < minWall)
}

// Regressed reports whether the delta violates the gate at the given
// threshold: throughput fell by more than threshold (e.g. 0.15 for 15%), or
// the experiment vanished.
func (d Delta) Regressed(threshold float64) bool {
	return d.Missing || d.Ratio < 1-threshold
}

// AllocRegressed reports whether per-event allocations grew by more than
// threshold (e.g. 0.15 for 15%). Unlike throughput, a missing experiment is
// not re-reported here — Regressed already fails it.
func (d Delta) AllocRegressed(threshold float64) bool {
	return !d.Missing && d.AllocRatio > 1+threshold
}

// Compare matches experiments by ID and returns one Delta per baseline
// experiment, in baseline order. Experiments only present in the new record
// are ignored (new benchmarks cannot regress).
func Compare(base, cur *File) []Delta {
	byID := make(map[string]Record, len(cur.Experiments))
	for _, r := range cur.Experiments {
		byID[r.ID] = r
	}
	out := make([]Delta, 0, len(base.Experiments))
	for _, b := range base.Experiments {
		d := Delta{
			ID:               b.ID,
			BaseEventsPerSec: b.EventsPerSec,
			BaseWallSeconds:  b.WallSeconds,
			BaseAllocsPerOp:  b.AllocsPerOp,
			AllocRatio:       1,
		}
		if n, ok := byID[b.ID]; ok {
			d.NewEventsPerSec = n.EventsPerSec
			d.NewWallSeconds = n.WallSeconds
			d.NewAllocsPerOp = n.AllocsPerOp
			if b.EventsPerSec > 0 {
				d.Ratio = n.EventsPerSec / b.EventsPerSec
			} else {
				d.Ratio = 1
			}
			if b.AllocsPerOp > 0 {
				d.AllocRatio = n.AllocsPerOp / b.AllocsPerOp
			}
		} else {
			d.Missing = true
		}
		out = append(out, d)
	}
	return out
}
