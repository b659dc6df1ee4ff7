package mac_test

import (
	"testing"

	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sim"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestMarkDeliveredNegativeTime pins that a mark at a negative time panics
// and records nothing: the clock never goes below zero, and the row's +1
// bias would store time −1 as 0, which reads as "never delivered" — the
// conflation behind an earlier bug where WasDelivered lied and duplicate
// marks slipped through. A row neighbor can still be marked at a real
// time, once; a node outside the row cannot be marked at any time.
func TestMarkDeliveredNegativeTime(t *testing.T) {
	row := []graph.NodeID{1, 3, 5}
	for _, tc := range []struct {
		name  string
		to    mac.NodeID
		inRow bool
	}{
		{"row-neighbor", 3, true},
		{"outside-row", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := mac.NewInstance(7, 0, mac.Payload{}, 0, row, 0)
			for _, at := range []sim.Time{-1, -3} {
				mustPanic(t, "MarkDelivered at a negative time", func() { b.MarkDelivered(tc.to, at, false) })
			}
			if b.WasDelivered(tc.to) || b.NumDelivered() != 0 {
				t.Fatalf("a rejected mark was recorded: WasDelivered=%v NumDelivered=%d",
					b.WasDelivered(tc.to), b.NumDelivered())
			}
			if !tc.inRow {
				mustPanic(t, "MarkDelivered outside the row", func() { b.MarkDelivered(tc.to, 4, false) })
				return
			}
			b.MarkDelivered(tc.to, 4, false)
			if at, ok := b.DeliveredAt(tc.to); !ok || at != 4 {
				t.Fatalf("DeliveredAt(%d) = (%d, %v), want (4, true)", tc.to, at, ok)
			}
			if n := b.NumDelivered(); n != 1 {
				t.Fatalf("NumDelivered = %d, want 1", n)
			}
			mustPanic(t, "duplicate MarkDelivered", func() { b.MarkDelivered(tc.to, 5, false) })
		})
	}
}

// TestMarkDeliveredRowAndOverflowDisjoint pins that the row is the record's
// whole domain: a node outside it cannot be marked (the mark panics and
// records nothing), and a node of the row cannot be marked twice.
func TestMarkDeliveredRowAndOverflowDisjoint(t *testing.T) {
	row := []graph.NodeID{1, 2}
	b := mac.NewInstance(1, 0, mac.Payload{}, 0, row, 0)
	b.MarkDelivered(1, 5, false)
	for _, v := range []mac.NodeID{0, 3} {
		mustPanic(t, "MarkDelivered outside the row", func() { b.MarkDelivered(v, 6, false) })
		if b.WasDelivered(v) {
			t.Fatalf("WasDelivered(%d) = true after a rejected mark", v)
		}
	}
	if at, ok := b.DeliveredAt(1); !ok || at != 5 {
		t.Fatalf("DeliveredAt(1) = (%d, %v), want (5, true)", at, ok)
	}
	if n := b.NumDelivered(); n != 1 {
		t.Fatalf("NumDelivered = %d, want 1", n)
	}
	mustPanic(t, "duplicate MarkDelivered", func() { b.MarkDelivered(1, 6, false) })
}
