// Command amacsim runs a single multi-message broadcast scenario on a
// chosen network, algorithm and scheduler, and reports completion metrics
// and (optionally) the model-compliance report and the event trace.
//
// Scenarios are declarative: the flags assemble a scenario.Spec resolved
// through the topology/scheduler/algorithm registries, and -scenario runs an
// arbitrary saved spec from a JSON file (see the scenarios/ directory),
// including combinations no flag set expresses. -dump prints the assembled
// spec instead of running it, which is how a flag invocation graduates into
// a scenario file.
//
// Examples:
//
//	amacsim -topology line -n 32 -k 4 -alg bmmb -sched sync
//	amacsim -topology rgg -n 50 -k 3 -alg fmmb
//	amacsim -topology parallel-lines -n 16 -alg bmmb -sched adversary -trace
//	amacsim -topology line -n 64 -alg bmmb -trials 16 -parallel 8
//	amacsim -scenario scenarios/grid-online-flaky.json
//	amacsim -scenario scenarios/quickstart.json -server http://localhost:7437
//	amacsim -topology ring -n 48 -k 3 -dump > scenarios/my-ring.json
//	amacsim -scenario scenarios/large-n-rgg.json && amacsim -read-trace large-n-rgg.s1.amtr
//
// A scenario with run.trace_file streams each trial's trace to a binary
// file instead of RAM (the large-n path); -read-trace decodes such a file,
// printing a per-kind summary, or the full rendered trace with -trace.
//
// -server submits the scenario as a job to a running amacd daemon and
// renders the merged result; the report is byte-identical to the in-process
// run because executions are pure functions of (spec, seed).
//
// With -trials > 1 the same configuration is replayed across consecutive
// seeds on a worker pool (-parallel), reporting per-seed completions in
// seed order plus the aggregate — a quick Monte-Carlo mode.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/jobs"
	"amac/internal/metrics"
	"amac/internal/scenario"
	"amac/internal/sim"
	"amac/internal/topology"
)

// errUsage signals a flag-parse failure whose message the FlagSet already
// printed; main must not print it again.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "amacsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, resolves the scenario and executes it, writing the report
// to out. It is main minus the process boundary, so tests drive it directly
// with a fresh flag set per call.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amacsim", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "run a saved scenario spec (JSON file) instead of assembling one from flags")
		dump         = fs.Bool("dump", false, "print the assembled scenario spec as JSON and exit")
		topo         = fs.String("topology", "line", "registered topology: line | ring | star | grid | tree | rgg | rline | pods | noisy-line | grid-crosstalk | parallel-lines | star-choke")
		n            = fs.Int("n", 32, "number of nodes (grid uses the nearest square)")
		k            = fs.Int("k", 2, "number of MMB messages")
		r            = fs.Int("r", 2, "restriction radius for -topology rline")
		algName      = fs.String("alg", "bmmb", "registered algorithm: bmmb | fmmb")
		sname        = fs.String("sched", "", "registered scheduler: sync | random | contention | slot | adversary (default: the algorithm's)")
		rel          = fs.Float64("rel", 0.5, "unreliable-link delivery probability for sync/random/contention")
		span         = fs.Int64("span", 0, "online mode: spread arrivals over the first span ticks (bmmb only)")
		fprog        = fs.Int64("fprog", 10, "progress bound in ticks")
		fack         = fs.Int64("fack", 200, "acknowledgment bound in ticks")
		seed         = fs.Int64("seed", 1, "random seed")
		trials       = fs.Int("trials", 1, "replay the run across this many consecutive seeds")
		par          = fs.Int("parallel", runtime.NumCPU(), "worker pool size for -trials > 1")
		doCheck      = fs.Bool("check", true, "verify the abstract MAC layer guarantees")
		shards       = fs.Int("shards", 0, "worker count for the component-sharded executor (0 = single-engine executor)")
		stats        = fs.Bool("stats", false, "print per-node and per-message metrics")
		trace        = fs.Bool("trace", false, "dump the event trace")
		cGrey        = fs.Float64("c", 1.6, "grey zone constant for -topology rgg")
		server       = fs.String("server", "", "submit the scenario to an amacd daemon at this base URL instead of running in-process")
		readTrace    = fs.String("read-trace", "", "decode a binary trace file (written via a scenario's trace_file) and print a summary; -trace dumps every event")
	)
	switch err := fs.Parse(args); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// Usage was already printed; -h is a successful invocation.
		return nil
	default:
		// The FlagSet printed the error and usage; just set the exit code.
		return errUsage
	}

	if *readTrace != "" {
		if *scenarioPath != "" || *server != "" {
			return fmt.Errorf("-read-trace decodes an existing file and cannot combine with -scenario or -server")
		}
		return readTraceFile(*readTrace, out, *trace)
	}

	var spec scenario.Spec
	if *scenarioPath != "" {
		loaded, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		spec = loaded
		// Explicitly set run-option flags override the file, so one saved
		// scenario serves quick looks and long Monte-Carlo runs. Scenario
		// *content* flags conflict with the file and error rather than
		// being silently ignored.
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				if *seed == 0 && conflict == nil {
					conflict = fmt.Errorf("-seed must be non-zero (0 is the spec-level \"use the default\" sentinel)")
				}
				spec.Run.Seed = *seed
			case "trials":
				spec.Run.Trials = *trials
			case "parallel":
				spec.Run.Parallelism = *par
			case "check":
				spec.Run.Check = *doCheck
			case "shards":
				spec.Run.Shards = *shards
			case "scenario", "dump", "stats", "trace", "server":
				// Orthogonal to the spec contents.
			default:
				if conflict == nil {
					conflict = fmt.Errorf("-%s conflicts with -scenario: edit the file (or -dump a fresh one) instead", f.Name)
				}
			}
		})
		if conflict != nil {
			return conflict
		}
	} else {
		var err error
		spec, err = specFromFlags(*topo, *n, *k, *r, *algName, *sname, *rel, *span,
			*fprog, *fack, *seed, *trials, *doCheck, *cGrey)
		if err != nil {
			return err
		}
		spec.Run.Shards = *shards
	}

	if *dump {
		buf, err := spec.JSON()
		if err != nil {
			return err
		}
		out.Write(buf)
		return nil
	}
	if spec.Run.Parallelism == 0 {
		spec.Run.Parallelism = *par
	}

	if *server != "" {
		// Remote execution ships scalar trial records; the engine (and with
		// it the trace and per-node metrics) stays on the daemon.
		if *stats || *trace {
			return fmt.Errorf("-stats and -trace need the in-process engine and cannot combine with -server")
		}
		client := &jobs.Client{Base: *server}
		reports, err := client.RunSpecs(spec.Name, []scenario.Spec{spec})
		if err != nil {
			return err
		}
		return printReport(out, reports[0], false, false)
	}

	report, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	return printReport(out, report, *stats, *trace)
}

// readTraceFile streams a binary trace from disk (never holding it in
// memory — large-n traces outgrow RAM by design) and prints either every
// rendered event (dump) or a per-kind summary with the covered time span.
func readTraceFile(path string, out io.Writer, dump bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := sim.NewTraceReader(f)
	if err != nil {
		return err
	}
	kinds := map[string]int{}
	var order []string
	total := 0
	var last sim.Time
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: event %d: %w", path, total, err)
		}
		if dump {
			fmt.Fprintln(out, ev.String())
		}
		if kinds[ev.Kind] == 0 {
			order = append(order, ev.Kind) // first-seen order, matching the interning
		}
		kinds[ev.Kind]++
		total++
		last = ev.At
	}
	fmt.Fprintf(out, "trace      : %s\n", path)
	fmt.Fprintf(out, "events     : %d spanning [0, %d] ticks\n", total, int64(last))
	for _, k := range order {
		fmt.Fprintf(out, "  %-8s : %d\n", k, kinds[k])
	}
	return nil
}

// specFromFlags assembles the declarative scenario the legacy flag set
// describes.
func specFromFlags(topo string, n, k, r int, algName, sname string, rel float64,
	span, fprog, fack, seed int64, trials int, doCheck bool, cGrey float64) (scenario.Spec, error) {

	if seed == 0 {
		return scenario.Spec{}, fmt.Errorf("-seed must be non-zero (0 is the spec-level \"use the default\" sentinel)")
	}
	spec := scenario.Spec{
		Algorithm: scenario.AlgorithmSpec{Name: algName},
		Model:     scenario.ModelSpec{Fprog: fprog, Fack: fack},
		// Parallelism is set by the caller at run time, not here: dumped
		// scenario files must not bake in this machine's core count.
		Run: scenario.RunSpec{
			Seed:      seed,
			Trials:    trials,
			Check:     doCheck,
			StepLimit: 1 << 62,
		},
	}

	// Topology: the network is pinned by the base seed (trials vary only
	// the execution randomness), matching amacsim's historical behavior.
	spec.Topology = scenario.TopologySpec{Name: topo, Seed: seed}
	workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k}
	switch topo {
	case "line", "ring", "star", "tree", "grid":
		spec.Topology.Params = topology.Params{"n": float64(n)}
	case "rgg":
		spec.Topology.Params = topology.Params{
			"n": float64(n), "side": topology.DefaultRGGSide(n), "c": cGrey, "p": 0.5,
			"max-tries": 500,
		}
	case "rline":
		spec.Topology.Params = topology.Params{"n": float64(n), "r": float64(r), "p": 0.6}
	case "pods":
		// One pod per message: k disjoint r-restricted lines, the
		// component-sharded executor's native workload.
		spec.Topology.Params = topology.Params{"n": float64(n), "k": float64(k), "r": float64(r), "p": 0.6}
	case "noisy-line":
		spec.Topology.Params = topology.Params{"n": float64(n), "extra": float64(n)}
	case "grid-crosstalk":
		spec.Topology.Params = topology.Params{"n": float64(n), "r": float64(r), "p": 0.5}
	case "parallel-lines":
		spec.Topology.Params = topology.Params{"d": float64(n / 2)}
		workload = scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction}
	case "star-choke":
		spec.Topology.Params = topology.Params{"k": float64(k)}
		workload = scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction}
	default:
		return scenario.Spec{}, fmt.Errorf("unknown topology %q (registered: %v)", topo, topology.Names())
	}

	if algName == "fmmb" {
		spec.Algorithm.Params = topology.Params{"c": cGrey}
	}

	if span > 0 {
		if algName != "bmmb" {
			return scenario.Spec{}, fmt.Errorf("-span (online arrivals) requires -alg bmmb: FMMB's staged schedule expects time-zero arrivals")
		}
		workload = scenario.WorkloadSpec{Kind: scenario.WorkloadPoisson, K: k, Span: span}
	}
	spec.Workload = workload

	if sname != "" {
		spec.Scheduler = scenario.SchedulerSpec{Name: sname}
		switch sname {
		case "sync", "random", "contention":
			spec.Scheduler.Params = topology.Params{"rel": rel}
		}
	} else if algName == "bmmb" {
		// The flag default has always been Sync with Bernoulli(rel).
		spec.Scheduler = scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": rel}}
	}
	return spec, nil
}

// printReport renders the scenario outcome in amacsim's report format. A
// run that broke a guarantee of the model or of the MMB problem prints every
// violation and fails, as does a run that did not solve MMB.
func printReport(out io.Writer, rep *scenario.Report, stats, trace bool) error {
	spec := rep.Spec
	first := rep.Trials[0]
	net := first.Network
	alg, _ := core.LookupAlgorithm(spec.Algorithm.Name)

	// The sampled diameter is exact up to graph.ExactDiameterCutoff nodes
	// and a lower bound above it.
	diam := "D="
	if net.N > graph.ExactDiameterCutoff {
		diam = "D≥"
	}
	fmt.Fprintf(out, "network    : %s (n=%d, %s%d, |E|=%d, |E'\\E|=%d)\n",
		net.Name, net.N, diam, net.Diameter, net.Edges, net.Unreliable)
	if spec.Workload.Kind == scenario.WorkloadPoisson {
		fmt.Fprintf(out, "workload   : k=%d messages arriving online over the first %d ticks\n",
			first.K, spec.Workload.Span)
	} else {
		fmt.Fprintf(out, "workload   : k=%d messages at time zero\n", first.K)
	}
	fmt.Fprintf(out, "algorithm  : %s (%s model)\n", spec.Algorithm.Name, alg.Mode)
	fmt.Fprintf(out, "scheduler  : %s\n", first.SchedulerName)
	fmt.Fprintf(out, "bounds     : Fprog=%d Fack=%d ticks\n", spec.Model.Fprog, spec.Model.Fack)

	if len(rep.Trials) > 1 {
		return printTrials(out, rep)
	}

	res := first.Result
	fprog, fack := float64(spec.Model.Fprog), float64(spec.Model.Fack)
	fmt.Fprintf(out, "solved     : %v (%d/%d deliveries)\n", res.Solved, res.Delivered, res.Required)
	if res.Solved {
		fmt.Fprintf(out, "completion : %d ticks (= %.1f Fprog, %.2f Fack)\n",
			int64(res.CompletionTime),
			float64(res.CompletionTime)/fprog,
			float64(res.CompletionTime)/fack)
	}
	fmt.Fprintf(out, "broadcasts : %d instances over %d simulation events\n", res.Broadcasts, res.Steps)
	if res.Report != nil && res.Report.OK() {
		fmt.Fprintln(out, "model check: all guarantees hold (receive/ack correctness, termination, Fack bound, Fprog bound)")
	}
	violations := printViolations(out, "", res)
	if stats {
		if res.Engine == nil {
			return fmt.Errorf("-stats needs the per-instance records the decomposed executor does not retain (drop -shards)")
		}
		if res.Trace == nil {
			return fmt.Errorf("-stats needs the in-memory trace (run with trace mode %q)", core.TraceMemory)
		}
		m := metrics.Collect(res.Engine.Dual(), res.Engine.Instances(), res.Trace)
		fmt.Fprint(out, m.String())
	}
	if trace {
		if res.Trace == nil {
			return fmt.Errorf("-trace needs the in-memory trace (run with trace mode %q)", core.TraceMemory)
		}
		fmt.Fprint(out, res.Trace.String())
	}
	switch {
	case violations > 0:
		return fmt.Errorf("%d violations of the model or the MMB conditions", violations)
	case !res.Solved:
		return fmt.Errorf("MMB not solved within the horizon")
	}
	return nil
}

// printTrials renders the Monte-Carlo report: per-seed summaries in seed
// order, each followed by its violations, plus the aggregate. Each run is
// an independent deterministic simulation, so the report is identical at
// any parallelism.
func printTrials(out io.Writer, rep *scenario.Report) error {
	spec := rep.Spec
	fmt.Fprintf(out, "trials     : %d seeds starting at %d, %d workers\n",
		spec.Run.Trials, spec.Run.Seed, spec.Run.Parallelism)
	solved, violating := 0, 0
	var sum, worst float64
	var steps uint64
	for _, tr := range rep.Trials {
		res := tr.Result
		status := "solved"
		if !res.Solved {
			status = "UNSOLVED"
		}
		fmt.Fprintf(out, "  seed %-5d: %s in %d ticks (%d/%d deliveries, %d events)\n",
			tr.Seed, status, int64(res.CompletionTime), res.Delivered, res.Required, res.Steps)
		if printViolations(out, "    ", res) > 0 {
			violating++
		}
		if res.Solved {
			solved++
			sum += float64(res.CompletionTime)
			if float64(res.CompletionTime) > worst {
				worst = float64(res.CompletionTime)
			}
		}
		steps += res.Steps
	}
	if solved == 0 {
		fmt.Fprintf(out, "aggregate  : 0/%d solved, %d events total\n", spec.Run.Trials, steps)
	} else {
		fack := float64(spec.Model.Fack)
		fmt.Fprintf(out, "aggregate  : %d/%d solved, mean completion %.1f ticks (%.2f Fack), worst %.0f, %d events total\n",
			solved, spec.Run.Trials, sum/float64(solved), sum/float64(solved)/fack, worst, steps)
	}
	switch {
	case violating > 0:
		return fmt.Errorf("%d of %d trials violated the model or the MMB conditions", violating, spec.Run.Trials)
	case solved == 0:
		return fmt.Errorf("all %d trials unsolved", spec.Run.Trials)
	case solved != spec.Run.Trials:
		return fmt.Errorf("%d of %d trials unsolved", spec.Run.Trials-solved, spec.Run.Trials)
	}
	return nil
}

// printViolations prints every model-check and MMB violation of a run, one
// a line after the given indent, and returns how many it printed.
func printViolations(out io.Writer, indent string, res *core.Result) int {
	n := len(res.MMBViolations)
	if res.Report != nil {
		n += len(res.Report.Violations)
		for _, v := range res.Report.Violations {
			fmt.Fprintf(out, "%smodel violation: %s\n", indent, v.Error())
		}
	}
	for _, v := range res.MMBViolations {
		fmt.Fprintf(out, "%sMMB violation: %s\n", indent, v)
	}
	return n
}
