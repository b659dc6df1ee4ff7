package main

import "fmt"

// layerMetrics derives the per-layer metrics of a traced replay. untraced
// is the median untraced wall time of the workload's own call and
// untracedSerial that of the same call at parallelism 1 (equal to untraced
// for workloads without a worker pool); the tracing overhead compares the
// replay, which is serial, with the latter.
func layerMetrics(rr *replayResult, untraced, untracedSerial float64) []metric {
	spans := rr.spans[:rr.probeFrom]
	self := selfTimes(spans)
	sum := func(name string, f func(i int) float64) float64 {
		v := 0.0
		for i, s := range spans {
			if s.Name == name {
				v += f(i)
			}
		}
		return v
	}
	selfS := func(name string) float64 { return sum(name, func(i int) float64 { return float64(self[i]) / 1e9 }) }
	allocs := func(name string) float64 { return sum(name, func(i int) float64 { return float64(spans[i].Allocs) }) }
	perTrialMS := func(name string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/1e6)
			}
		}
		return xs
	}
	var topLevel float64
	for _, s := range spans {
		if s.Parent < 0 {
			topLevel += float64(s.dur()) / 1e9
		}
	}
	tracedWall := float64(rr.wall) / 1e9
	runS := selfS("core.run")
	trialMS := perTrialMS("scenario.trial")
	checkMS, mmbMS := perTrialMS("check.all"), perTrialMS("check.mmb")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	ms := []metric{
		{Name: "topology.build_s", Value: selfS("topology.build"), Unit: "s"},
		{Name: "topology.build_allocs", Value: allocs("topology.build"), Unit: "count"},
		{Name: "graph.diameter_s", Value: selfS("graph.diameter"), Unit: "s"},
		{Name: "mac.arena_s", Value: selfS("mac.arena"), Unit: "s"},
		{Name: "core.fleet_s", Value: selfS("core.fleet"), Unit: "s"},
		{Name: "sched.build_s", Value: selfS("sched.build"), Unit: "s"},
		{Name: "core.run_s", Value: runS, Unit: "s"},
		{Name: "core.run_allocs", Value: allocs("core.run"), Unit: "count"},
		{Name: "core.run_alloc_mb", Value: sum("core.run", func(i int) float64 { return float64(spans[i].AllocBytes) / (1 << 20) }), Unit: "MB"},
		{Name: "sim.steps", Value: float64(rr.steps), Unit: "count"},
		{Name: "sim.ns_per_step", Value: ratio(runS*1e9, float64(rr.steps)), Unit: "ns"},
		{Name: "mac.bcasts", Value: float64(rr.bcasts), Unit: "count"},
		{Name: "mac.rcvs", Value: float64(rr.rcvs), Unit: "count"},
		{Name: "mac.ns_per_rcv", Value: ratio(runS*1e9, float64(rr.rcvs)), Unit: "ns"},
		{Name: "check.all_ms_p50", Value: quantile(checkMS, 0.50), Unit: "ms", Note: n(checkMS)},
		{Name: "check.all_ms_p95", Value: quantile(checkMS, 0.95), Unit: "ms", Note: n(checkMS)},
		{Name: "check.mmb_ms_p50", Value: quantile(mmbMS, 0.50), Unit: "ms", Note: n(mmbMS)},
		{Name: "check.mmb_ms_p95", Value: quantile(mmbMS, 0.95), Unit: "ms", Note: n(mmbMS)},
		{Name: "check.trials", Value: float64(len(checkMS)), Unit: "count"},
		{Name: "scenario.trial_ms_p50", Value: quantile(trialMS, 0.50), Unit: "ms", Note: n(trialMS)},
		{Name: "scenario.trial_ms_p95", Value: quantile(trialMS, 0.95), Unit: "ms", Note: n(trialMS)},
		{Name: "scenario.trials", Value: float64(len(trialMS)), Unit: "count"},
		{Name: "scenario.self_s", Value: selfS("scenario.trial") + selfS("scenario.spec_setup"), Unit: "s",
			Note: "trial and spec-setup time outside every layer call"},
		{Name: "par.speedup", Value: ratio(topLevel, untraced), Unit: "ratio",
			Note: "serial traced time / untraced wall at the workload's parallelism"},
		{Name: "sim.trace_events", Value: float64(rr.traceEvents), Unit: "count"},
		{Name: "go.gc_cpu_s", Value: rr.gc.gcCPU, Unit: "s"},
		{Name: "go.gc_cycles", Value: float64(rr.gc.cycles), Unit: "count"},
		{Name: "bench.traced_wall_s", Value: tracedWall, Unit: "s"},
		{Name: "bench.untraced_wall_s", Value: untracedSerial, Unit: "s", Note: "at parallelism 1"},
		{Name: "bench.trace_overhead_s", Value: tracedWall - untracedSerial, Unit: "s"},
		{Name: "bench.span_coverage", Value: ratio(topLevel, tracedWall), Unit: "ratio",
			Note: "sum of top-level spans / traced wall"},
	}
	var shardSpeedup, streamOverhead, writer float64
	if p := rr.probe; p != nil {
		shardSpeedup = ratio(float64(p.runShards1), float64(p.runShards2))
		streamOverhead = float64(p.runShards2-p.runOff) / 1e9
		writer = float64(p.writer) / 1e9
	}
	return append(ms,
		metric{Name: "sim.tracewriter_s", Value: writer, Unit: "s"},
		metric{Name: "core.shard_speedup", Value: shardSpeedup, Unit: "ratio",
			Note: "Runner.Run at shards=1 / at shards=2"},
		metric{Name: "core.stream_overhead_s", Value: streamOverhead, Unit: "s",
			Note: "Runner.Run streamed minus trace off, at shards=2"},
	)
}
