package harness

import (
	"amac/internal/scenario"
	"amac/internal/sim"
)

// SweepPoint is one data point of a declarative experiment: the scenario
// spec to execute plus how to present and judge its result. Specs are the
// data; the hooks only read the executed trials.
type SweepPoint struct {
	// Spec is the scenario; RunSweep fills the model constants, seed,
	// trials and check flag from the harness options.
	Spec scenario.Spec
	// X is the sweep coordinate used for ratio-trend analysis.
	X float64
	// Cells returns the leading display cells of the row (everything
	// before the measured/bound/ratio triple).
	Cells func(r *scenario.Report) []string
	// Measure extracts the measured quantity; nil selects the mean
	// completion time over the trials.
	Measure func(r *scenario.Report) float64
	// Bound computes the paper's formula for this point; it may consult
	// the executed trials (e.g. the seed-keyed instance diameter).
	Bound func(r *scenario.Report) float64
}

// VerdictKind selects how RunSweep judges a segment's measured-vs-bound
// series.
type VerdictKind int

const (
	// VerdictUpper appends the ratio-trend shape verdict per segment (the
	// paper's upper bounds).
	VerdictUpper VerdictKind = iota
	// VerdictLower checks measured >= bound on every row of every segment
	// and appends one table-level note (the adversarial lower bounds).
	VerdictLower
	// VerdictNone appends no automatic notes.
	VerdictNone
)

// SweepSegment is a run of points sharing one verdict series.
type SweepSegment struct {
	Points []SweepPoint
}

// SweepDef is a declarative experiment: table metadata plus segments of
// scenario-spec points. RunSweep executes every (point, trial) simulation on
// the options' worker pool and renders the table; rendered output is
// byte-identical at any parallelism.
type SweepDef struct {
	ID         string
	Title      string
	PaperClaim string
	Columns    []string
	Segments   []SweepSegment
	Verdict    VerdictKind
	// FinalNotes are appended after the verdict notes.
	FinalNotes []string
}

// RunSweep executes the definition under the options and renders its table.
// Experiments are calibrated so every run must solve its instance; RunSweep
// keeps the harness's fail-fast contract by panicking on unsolved runs,
// model violations, or spec errors.
func RunSweep(o Options, def SweepDef) *Table {
	o = o.withDefaults()
	t := &Table{ID: def.ID, Title: def.Title, PaperClaim: def.PaperClaim, Columns: def.Columns}

	var specs []scenario.Spec
	for _, seg := range def.Segments {
		for _, pt := range seg.Points {
			specs = append(specs, withOptions(pt.Spec, o))
		}
	}
	reports := o.mustSweep(def.ID, specs)

	lowerOK := true
	ri := 0
	for _, seg := range def.Segments {
		var sweep, meas, bnd []float64
		for _, pt := range seg.Points {
			r := reports[ri]
			ri++
			m := r.MeanCompletion()
			if pt.Measure != nil {
				m = pt.Measure(r)
			}
			b := pt.Bound(r)
			cells := pt.Cells(r)
			t.AddRow(append(cells, ticksStr(m), ticksStr(b), ratioStr(m, b))...)
			if m < b {
				lowerOK = false
			}
			sweep = append(sweep, pt.X)
			meas = append(meas, m)
			bnd = append(bnd, b)
		}
		if def.Verdict == VerdictUpper {
			verdict(t, sweep, meas, bnd)
		}
	}
	if def.Verdict == VerdictLower {
		if lowerOK {
			t.AddNote("lower bound HOLDS: every adversarial execution takes at least its formula")
		} else {
			t.AddNote("lower bound VIOLATED: some execution beat the adversarial schedule")
		}
	}
	for _, n := range def.FinalNotes {
		t.AddNote("%s", n)
	}
	return t
}

// withOptions projects the harness options into a point's spec: model
// constants, base seed, trial count and the check flag come from the
// options so one definition serves quick runs, benchmarks and full sweeps.
func withOptions(s scenario.Spec, o Options) scenario.Spec {
	s.Model.Fprog = int64(o.Fprog)
	s.Model.Fack = int64(o.Fack)
	s.Run.Seed = o.Seed
	s.Run.Trials = o.Trials
	s.Run.Check = o.Check
	return s
}

// cells returns a constant leading-cell hook.
func cells(vals ...string) func(*scenario.Report) []string {
	return func(*scenario.Report) []string { return vals }
}

// staticBound returns a constant bound hook.
func staticBound(v float64) func(*scenario.Report) float64 {
	return func(*scenario.Report) float64 { return v }
}

// meanRounds measures mean completion in Fprog rounds.
func meanRounds(fprog sim.Time) func(*scenario.Report) float64 {
	return func(r *scenario.Report) float64 {
		return r.MeanCompletion() / float64(fprog)
	}
}

// lastDiameter returns the G-diameter of the last trial's instance,
// matching the sequential harness's seed-keyed topology reporting. Every
// sweep that reads it stays below graph.ExactDiameterCutoff, where the
// summary's sampled diameter is exact.
func lastDiameter(r *scenario.Report) float64 {
	return float64(r.Trials[len(r.Trials)-1].Network.Diameter)
}
