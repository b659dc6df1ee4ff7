// Command amacd is the experiment daemon: a long-running HTTP service that
// executes scenario sweeps as sharded, checkpointed, resumable jobs.
//
// Submit a job (a scenarios/*.json scenario spec, or a job spec with a
// "sweep" grid), poll it, and fetch the merged result:
//
//	amacd -addr :7437 -dir /var/lib/amacd &
//	curl -d @scenarios/quickstart.json localhost:7437/jobs
//	curl localhost:7437/jobs/<id>
//	curl localhost:7437/jobs/<id>/result
//
// Results are byte-identical to a single-machine run of the same specs: a
// sweep's (spec, trial) task space is split into shards keyed by exact
// int64 trial seeds, each shard's trials are deterministic simulations, and
// shard records merge in index order. Completed shards checkpoint to the
// store directory, so a killed daemon restarted over the same -dir resumes
// every unfinished job without rerunning finished shards.
//
// -local runs one job spec file in-process (no server, no checkpoints) and
// prints the canonical result JSON — the reference bytes the service path
// is held to. -exit-after-shards N crashes the process (hard exit, no
// cleanup) after N shard checkpoints — the deterministic kill point the CI
// resume smoke restarts from.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"

	"amac/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amacd:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("amacd", flag.ContinueOnError)
	addr := fs.String("addr", ":7437", "listen address")
	dir := fs.String("dir", "amacd-data", "checkpoint directory (jobs resume from it on restart)")
	workers := fs.Int("workers", runtime.NumCPU(), "worker pool bound for in-shard trial parallelism")
	local := fs.String("local", "", "run this job spec file in-process and print the result (no server)")
	exitAfter := fs.Int("exit-after-shards", 0, "crash injection for resume testing: exit the process hard after this many shard checkpoints (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *local != "" {
		job, err := jobs.Load(*local)
		if err != nil {
			return err
		}
		res, err := jobs.Execute(job, *workers)
		if err != nil {
			return err
		}
		data, err := res.Canonical()
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	}

	var afterShard func(string, jobs.Shard) error
	if *exitAfter > 0 {
		// The store runs jobs on one loop goroutine, so a plain counter
		// suffices. os.Exit skips all cleanup on purpose: the smoke test
		// wants a crash between checkpoints, not a graceful shutdown. The
		// hook goes in through Open, so it also counts the shards of jobs
		// resumed from the directory.
		n := 0
		afterShard = func(id string, sh jobs.Shard) error {
			if n++; n >= *exitAfter {
				fmt.Fprintf(os.Stderr, "amacd: crash injection: exiting after %d shard checkpoints (job %s, shard %d)\n", n, id, sh.Index)
				os.Exit(3)
			}
			return nil
		}
	}
	store, err := jobs.Open(*dir, *workers, afterShard)
	if err != nil {
		return err
	}
	defer store.Close()
	fmt.Fprintf(out, "amacd: serving on %s, checkpoints in %s, %d workers\n", *addr, *dir, *workers)
	return http.ListenAndServe(*addr, jobs.NewHandler(store))
}
