package main

import (
	"cmp"
	"runtime/metrics"
	"slices"
	"time"

	"amac/internal/stats"
)

// span is one timed call into a layer, recorded by the traced replay from
// the benchmark's own code around the public call.
type span struct {
	Name string `json:"name"`
	// Parent indexes the enclosing span, or -1 for a top-level span.
	Parent int `json:"parent"`
	// Trial is the trial index within the workload, or -1 for spans
	// outside any trial.
	Trial int `json:"trial"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Runtime counter deltas over the span, read from runtime/metrics
	// (which does not stop the world).
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPU      float64 `json:"gc_cpu_s"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Runtime metrics sampled at each span boundary.
var spanMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// counters is one reading of spanMetrics.
type counters struct {
	allocs, bytes, cycles uint64
	gcCPU                 float64
}

func (c counters) minus(o counters) counters {
	return counters{c.allocs - o.allocs, c.bytes - o.bytes, c.cycles - o.cycles, c.gcCPU - o.gcCPU}
}

// tracer records spans in memory; they are written out when the run ends.
// It serves one goroutine: the replay is sequential so that spans of
// different trials never overlap.
type tracer struct {
	origin  time.Time
	spans   []span
	open    []int // stack of open span indexes
	begins  []counters
	trial   int
	samples []metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), trial: -1, samples: make([]metrics.Sample, len(spanMetrics))}
	for i, name := range spanMetrics {
		t.samples[i].Name = name
	}
	return t
}

func (t *tracer) read() counters {
	metrics.Read(t.samples)
	var c counters
	if t.samples[0].Value.Kind() == metrics.KindUint64 {
		c.allocs = t.samples[0].Value.Uint64()
	}
	if t.samples[1].Value.Kind() == metrics.KindUint64 {
		c.bytes = t.samples[1].Value.Uint64()
	}
	if t.samples[2].Value.Kind() == metrics.KindUint64 {
		c.cycles = t.samples[2].Value.Uint64()
	}
	if t.samples[3].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = t.samples[3].Value.Float64()
	}
	return c
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Trial: t.trial})
	t.open = append(t.open, len(t.spans)-1)
	t.begins = append(t.begins, t.read())
	t.spans[len(t.spans)-1].Start = t.now()
}

// end closes the innermost open span.
func (t *tracer) end() {
	endAt := t.now()
	c := t.read()
	i := t.open[len(t.open)-1]
	d := c.minus(t.begins[len(t.begins)-1])
	t.open = t.open[:len(t.open)-1]
	t.begins = t.begins[:len(t.begins)-1]
	s := &t.spans[i]
	s.End = endAt
	s.Allocs, s.AllocBytes, s.GCCycles, s.GCCPU = d.allocs, d.bytes, d.cycles, d.gcCPU
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other or stick out of
// their parent; only the union of their intervals, clipped to the parent,
// is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		var covered int64
		var curLo, curHi int64 = 0, -1 << 62
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// quantile returns the p-quantile of xs (stats.Percentile, linear
// interpolation), or 0 for no samples: a layer the workload bypasses.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(slices.Sorted(slices.Values(xs)), p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
