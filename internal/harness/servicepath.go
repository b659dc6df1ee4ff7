package harness

import (
	"fmt"
	"net/http/httptest"
	"os"

	"amac/internal/jobs"
	"amac/internal/scenario"
	"amac/internal/topology"
)

// ServicePath measures the amacd service path end to end: a loopback
// daemon (jobs.Store + HTTP handler) receives a small sweep, shards and
// executes it, and the client polls the result back — the same
// submit-to-result round trip amacsim/amacbench -server users pay. The
// experiment's wall time lands in the BENCH.json perf record, so benchdiff
// gates service-layer regressions (job hashing, checkpoint I/O, HTTP
// marshalling, report reconstruction) exactly like engine ones. The table
// itself verifies the merged remote reports are byte-equivalent to the
// in-process sweep — the correctness half of the service contract.
func ServicePath(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:         "amacd-service-path",
		Title:      "amacd submit-to-result service path on a loopback daemon",
		PaperClaim: "",
		Columns:    []string{"sweep", "specs", "trials", "remote==local"},
	}

	// The sweep is deliberately small: the point is the service overhead
	// around the simulations, not the simulations themselves.
	var specs []scenario.Spec
	sizes := []int{8, 16, 32}
	if o.Quick {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		specs = append(specs, scenario.Spec{
			Name:      fmt.Sprintf("svc-line-%d", n),
			Topology:  scenario.TopologySpec{Name: "line", Params: topology.Params{"n": float64(n)}},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleSource, K: 2, Origin: 0},
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "sync"},
			Model:     scenario.ModelSpec{Fprog: int64(o.Fprog), Fack: int64(o.Fack)},
			Run:       scenario.RunSpec{Seed: o.Seed, Trials: o.Trials},
		})
	}

	dir, err := os.MkdirTemp("", "amac-service-path-")
	if err != nil {
		panic(fmt.Sprintf("harness: amacd-service-path: %v", err))
	}
	defer os.RemoveAll(dir)
	store, err := jobs.Open(dir, o.Parallelism, nil)
	if err != nil {
		panic(fmt.Sprintf("harness: amacd-service-path: %v", err))
	}
	defer store.Close()
	srv := httptest.NewServer(jobs.NewHandler(store))
	defer srv.Close()
	client := &jobs.Client{Base: srv.URL}

	remote, err := client.RunSpecs("amacd-service-path", specs)
	if err != nil {
		panic(fmt.Sprintf("harness: amacd-service-path: %v", err))
	}
	local, err := scenario.SweepWithOptions(specs, scenario.SweepOptions{Parallelism: o.Parallelism})
	if err != nil {
		panic(fmt.Sprintf("harness: amacd-service-path: %v", err))
	}

	match := true
	trials := 0
	for i := range specs {
		if len(remote[i].Trials) != len(local[i].Trials) {
			match = false
			continue
		}
		for j, rt := range remote[i].Trials {
			lt := local[i].Trials[j]
			countSimEvents(rt.Result.Steps)
			trials++
			if rt.Result.Solved != lt.Result.Solved ||
				rt.Result.CompletionTime != lt.Result.CompletionTime ||
				rt.Result.Steps != lt.Result.Steps ||
				rt.Seed != lt.Seed {
				match = false
			}
		}
	}
	t.AddRow("line/bmmb", fmt.Sprint(len(specs)), fmt.Sprint(trials), fmt.Sprint(match))
	if !match {
		t.AddNote("VIOLATED: remote reports diverge from the in-process sweep")
	} else {
		t.AddNote("remote reports reconstruct byte-equivalently; wall time (in the perf record) is the service overhead benchdiff gates")
	}
	return t
}
