// Command amacperf is the repository's benchmark. It runs one named
// workload through the simulator's public entry points (scenario.Run or
// scenario.SweepWithOptions), checks every simulated result, and prints
// its metrics; perfbench/run.sh builds it and forwards the arguments:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics (wall_s, setup_s,
// peak_rss_mb) measured with tracing off; with --trace 1 it replays the
// workload with a span around every call into a layer and prints the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Every timed call
// runs in a child process of its own, so each process's peak RSS belongs
// to one call of one workload. See BENCHMARK.json for the workloads and
// metrics, and workloads.go for why each workload exists.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"amac/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings shared by the parent and its
// child processes.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// small selects the reduced-size variant of every workload (self-tests).
	small bool
	// workdir is the directory trace files are written under; spans is
	// where traced runs write their span files.
	workdir, spans string
	// child selects a child-process role: wall, setup, reference or traced.
	child string
	// serial runs sweep-checked at parallelism 1 (traced-run baseline).
	serial bool
	// untraced and untracedSerial pass the parent's untraced wall times to
	// the traced child.
	untraced, untracedSerial float64
	// record rewrites the recorded default-seed values into this file.
	record string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amacperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring time of one run")
	fs.IntVar(&o.trace, "trace", 0, "1 replays the workload with spans and prints per-layer metrics")
	fs.BoolVar(&o.small, "small", false, "run the reduced-size workloads")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "directory trace files are written under")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	fs.StringVar(&o.child, "child", "", "child-process role (internal)")
	fs.BoolVar(&o.serial, "serial", false, "run sweeps at parallelism 1 (internal)")
	fs.Float64Var(&o.untraced, "untraced", 0, "untraced wall seconds (internal)")
	fs.Float64Var(&o.untracedSerial, "untraced-serial", 0, "untraced serial wall seconds (internal)")
	fs.StringVar(&o.record, "record", "", "rewrite the recorded default-seed values into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "amacperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "amacperf:", err)
		return 1
	}
	var err error
	switch {
	case o.record != "":
		err = record(o)
	case o.child != "":
		err = childMain(o, stdout)
	default:
		err = measure(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "amacperf:", err)
		return 1
	}
	return 0
}

// childReport is a child process's result, printed on its standard output.
type childReport struct {
	// Seconds is the host time of the timed public call.
	Seconds  float64        `json:"seconds"`
	Outcomes []trialOutcome `json:"outcomes,omitempty"`
	// Layers is the traced child's per-layer metrics.
	Layers []metric `json:"layers,omitempty"`
	Error  string   `json:"error,omitempty"`
}

func childMain(o options, stdout io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rep childReport
	if err := childRun(w, o, dir, &rep); err != nil {
		rep.Error = err.Error()
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func childRun(w workload, o options, dir string, rep *childReport) error {
	specs := w.specs(o.seed, o.small, dir)
	switch o.child {
	case "wall", "setup", "reference":
		if o.child == "setup" {
			specs = withStepLimit(specs)
		}
		if o.child == "reference" {
			specs = atShards(specs, 1)
		}
		if o.serial {
			w.parallelism = 1
		}
		reps, d, err := w.call(specs)
		if err != nil {
			return err
		}
		rep.Seconds = d.Seconds()
		if o.child == "setup" {
			// Setup calls stop at their first event: nothing to verify.
			return nil
		}
		rep.Outcomes, err = outcomes(reps)
		return err
	case "traced":
		rr, err := replay(w, o.seed, o.small, dir)
		if err != nil {
			return err
		}
		rep.Seconds = float64(rr.wall) / 1e9
		rep.Outcomes = rr.outcomes
		rep.Layers = layerMetrics(rr, o.untraced, o.untracedSerial)
		return writeSpans(o, rr)
	}
	return fmt.Errorf("unknown child role %q", o.child)
}

// atShards returns copies of specs run by the decomposed executor at the
// given shard count.
func atShards(specs []scenario.Spec, shards int) []scenario.Spec {
	out := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		s.Run.Shards = shards
		out[i] = s
	}
	return out
}

// host names the machine every number was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d go=%s gomaxprocs=%d", h.CPU, h.NProc, h.GoVersion, h.GOMAXPROCS)
}

// writeSpans writes a traced run's spans, with the host, to the spans
// directory once the run is over.
func writeSpans(o options, rr *replayResult) error {
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return err
	}
	self := selfTimes(rr.spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	spans := make([]out, len(rr.spans))
	for i, s := range rr.spans {
		spans[i] = out{s, self[i]}
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Host     host   `json:"host"`
		Spans    []out  `json:"spans"`
	}{o.workload, o.seed, thisHost(), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the number for the human-readable lines, e.g. its
	// sample count.
	Note string `json:"note,omitempty"`
}

// parent runs child processes for one benchmark run and tallies their
// verified trials.
type parent struct {
	o        options
	w        workload
	self     string
	start    time.Time
	stderr   io.Writer
	recorded []trialRecord
	// first is the first verified call's outcomes: at a seed without
	// recorded values every later call must reproduce them.
	first             []trialOutcome
	attempted, failed int
}

// No child starts once a run has used startBefore, and every child still
// running at killAfter is killed and its trials counted as failed, so a run
// ends within 180 seconds.
const (
	startBefore = 150 * time.Second
	killAfter   = 170 * time.Second
)

// measure makes one benchmark run of o.workload and prints its report.
func measure(o options, stdout, stderr io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	recorded, err := recordedFor(w.name, o.seed, o.small)
	if err != nil {
		return err
	}
	p := &parent{o: o, w: w, self: self, start: time.Now(), stderr: stderr, recorded: recorded}
	if recorded == nil && w.name == "pods-sharded" {
		// The first call is then a shards=1 run, so every streamed shards=2
		// trace of the run must equal its trace byte for byte.
		p.call("reference")
	}
	var ms []metric
	if o.trace == 1 {
		ms = p.traced()
	} else {
		ms = p.endToEnd()
	}
	return report(stdout, thisHost(), w.name, o.seed, ms, p.attempted, p.failed)
}

// child runs one child process in the given role and returns its report
// and peak resident memory in MB.
func (p *parent) child(role string, extra ...string) (childReport, float64, error) {
	args := []string{"-child", role, "-workload", p.w.name, fmt.Sprint("-seed=", p.o.seed),
		"-workdir", p.o.workdir, "-spans", p.o.spans}
	if p.o.small {
		args = append(args, "-small")
	}
	args = append(args, extra...)
	ctx, cancel := context.WithDeadline(context.Background(), p.start.Add(killAfter))
	defer cancel()
	cmd := exec.CommandContext(ctx, p.self, args...)
	cmd.Stderr = p.stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, 0, fmt.Errorf("child %s: %w", role, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, 0, fmt.Errorf("child %s output: %w", role, err)
	}
	if rep.Error != "" {
		return rep, 0, fmt.Errorf("child %s: %s", role, rep.Error)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, rss, nil
}

// call runs one child and verifies its trial outcomes. A child that fails
// fails every trial its call would have run; ok is false then.
func (p *parent) call(role string, extra ...string) (rep childReport, rss float64, ok bool) {
	rep, rss, err := p.child(role, extra...)
	if err != nil {
		for _, s := range p.w.specs(p.o.seed, p.o.small, p.o.workdir) {
			n := s.WithDefaults().Run.Trials
			p.attempted += n
			p.failed += n
		}
		fmt.Fprintln(p.stderr, "amacperf: FAILED:", err)
		return rep, rss, false
	}
	if role != "setup" {
		p.tally(rep.Outcomes)
	}
	return rep, rss, true
}

// tally verifies one call's outcomes against the recorded values, or at a
// seed without them against the first call's, and counts its trials.
func (p *parent) tally(outs []trialOutcome) {
	want := p.recorded
	if want == nil && p.first != nil {
		want = records(p.first)
	}
	if p.first == nil {
		p.first = outs
	}
	failed, reasons := verify(outs, want)
	p.attempted += max(len(outs), len(want))
	p.failed += failed
	for _, r := range reasons {
		fmt.Fprintln(p.stderr, "amacperf: FAILED:", r)
	}
}

// minSetups is the least number of setup calls a run makes.
const minSetups = 3

// endToEnd measures the end-to-end metrics with tracing off: setup and
// wall calls alternate until the run's seconds are spent and each has run
// its minimum number of times, and each metric is the median over its
// calls.
func (p *parent) endToEnd() []metric {
	deadline := time.Now().Add(time.Duration(p.o.seconds) * time.Second)
	var walls, setups, rss []float64
	nWall, nSetup := 0, 0
	var longest time.Duration
	for {
		spent := time.Now().After(deadline)
		setup := nSetup < minSetups || (!spent && nSetup <= nWall)
		wall := nWall < p.w.minWalls || (!spent && !setup)
		if !setup && !wall {
			break
		}
		if time.Since(p.start)+longest > startBefore {
			fmt.Fprintln(p.stderr, "amacperf: run time exhausted before the minimum repetitions")
			break
		}
		t0 := time.Now()
		if setup {
			nSetup++
			if rep, _, ok := p.call("setup"); ok {
				setups = append(setups, rep.Seconds)
			}
		} else {
			nWall++
			if rep, r, ok := p.call("wall"); ok {
				walls = append(walls, rep.Seconds)
				rss = append(rss, r)
			}
		}
		longest = max(longest, time.Since(t0))
	}
	return []metric{
		{Name: "wall_s", Value: median(walls), Unit: "s", Note: fmt.Sprintf("median of %d calls", len(walls))},
		{Name: "setup_s", Value: median(setups), Unit: "s", Note: fmt.Sprintf("median of %d calls with run.step_limit=1", len(setups))},
		{Name: "peak_rss_mb", Value: slices.Max(append(rss, 0)), Unit: "MB", Note: fmt.Sprintf("highest of %d one-call processes", len(rss))},
	}
}

// traced measures the untraced wall time, then replays the workload with
// spans in a child of its own, and returns the per-layer metrics.
func (p *parent) traced() []metric {
	deadline := time.Now().Add(time.Duration(p.o.seconds) * time.Second / 2)
	var walls []float64
	for len(walls) == 0 || time.Now().Before(deadline) {
		rep, _, ok := p.call("wall")
		if !ok {
			break
		}
		walls = append(walls, rep.Seconds)
	}
	untraced := median(walls)
	serial := untraced
	if p.w.sweep {
		rep, _, _ := p.call("wall", "-serial")
		serial = rep.Seconds
	}
	rep, _, _ := p.call("traced", fmt.Sprint("-untraced=", untraced), fmt.Sprint("-untraced-serial=", serial))
	return rep.Layers
}

// report prints the metrics by name with their units, then the result
// line: one JSON object with the keys correct, attempted, failed, metrics.
func report(stdout io.Writer, h host, name string, seed int64, ms []metric, attempted, failed int) error {
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "host: %s\n", h)
	fmt.Fprintf(bw, "workload: %s seed=%d\n", name, seed)
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Fprintf(bw, "%s = %.6g %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(bw, "failed_ratio = %g ratio (%d failed of %d trials attempted)\n", ratio, failed, attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(ms))
	for _, m := range ms {
		values[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, max(attempted, 1), failed, values})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// record runs every workload once at the default seed and full size and
// writes the trial records the benchmark verifies against. pods-sharded's
// trace hashes come from a shards=1 run, and the shards=2 run must match
// them byte for byte.
func record(o options) error {
	all := make(map[string][]trialRecord)
	for _, w := range workloads {
		dir, err := os.MkdirTemp(o.workdir, "record-")
		if err != nil {
			return err
		}
		specs := w.specs(defaultSeed, false, dir)
		outs, err := recordCall(w, specs)
		if err == nil && w.name == "pods-sharded" {
			var ref []trialOutcome
			if ref, err = recordCall(w, atShards(specs, 1)); err == nil {
				if failed, reasons := verify(outs, records(ref)); failed > 0 {
					err = errors.New(strings.Join(reasons, "; "))
				}
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all[w.name] = records(outs)
	}
	return os.WriteFile(o.record, formatRecorded(all), 0o644)
}

func recordCall(w workload, specs []scenario.Spec) ([]trialOutcome, error) {
	reps, _, err := w.call(specs)
	if err != nil {
		return nil, err
	}
	outs, err := outcomes(reps)
	if err != nil {
		return nil, err
	}
	if failed, reasons := verify(outs, nil); failed > 0 {
		return nil, errors.New(strings.Join(reasons, "; "))
	}
	return outs, nil
}
