package harness

import "testing"

// TestParallelHarnessDeterminism is the contract of Options.Parallelism:
// every experiment table must be byte-identical at Parallelism 1 and 8.
// Experiments cover both sweep styles (RunSweep over scenario specs, and
// collectTrials with auxiliary per-trial state such as the instance
// diameter).
func TestParallelHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	experiments := []struct {
		name string
		run  func(Options) *Table
	}{
		{"fig1-std-reliable", Fig1StdReliable},
		{"fig1-std-greyzone-lb", Fig2LowerBound},
		{"fig1-enh-greyzone", Fig1EnhGreyZone},
		{"mis-subroutine", MISExperiment},
	}
	for _, e := range experiments {
		opts := Options{Quick: true, Trials: 2, Seed: 5}
		opts.Parallelism = 1
		seq := e.run(opts).String()
		opts.Parallelism = 8
		par := e.run(opts).String()
		if seq != par {
			t.Errorf("%s: tables differ between Parallelism 1 and 8\n--- sequential ---\n%s--- parallel ---\n%s",
				e.name, seq, par)
		}
	}
}
