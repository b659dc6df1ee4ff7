package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"amac/internal/scenario"
)

// TestServerEndToEnd drives the full HTTP surface through the Client
// against a real store: submit → status → result → delete, plus the
// sharded result matching the single-machine reference byte-for-byte.
func TestServerEndToEnd(t *testing.T) {
	store, err := Open(t.TempDir(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()
	client := &Client{Base: srv.URL}

	job := testJob()
	ref, err := Execute(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalOrFatal(t, ref)

	id, err := client.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := job.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("server assigned id %s, content hash is %s", id, wantID)
	}

	st, err := client.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job finished in state %s: %s", st.State, st.Error)
	}
	if st.DoneTrials != st.TotalTrials || st.TotalTrials == 0 {
		t.Fatalf("done job reports %d/%d trials", st.DoneTrials, st.TotalTrials)
	}
	for _, sh := range st.Shards {
		if !sh.Done {
			t.Fatalf("done job reports shard %d unfinished", sh.Index)
		}
	}

	got, err := client.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("server result diverges from the single-machine reference")
	}

	// Resubmitting the finished job is idempotent: same ID, still done.
	again, err := client.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if again != id {
		t.Fatalf("resubmission changed the id: %s != %s", again, id)
	}

	// RunSpecs reconstructs reports usable by the CLI render path.
	reports, err := client.RunSpecs("e2e", job.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(job.Sweep) {
		t.Fatalf("RunSpecs returned %d reports, want %d", len(reports), len(job.Sweep))
	}
	direct, err := scenario.Sweep(job.WithDefaults().Sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if len(reports[i].Trials) != len(direct[i].Trials) {
			t.Fatalf("report %d: %d trials, want %d", i, len(reports[i].Trials), len(direct[i].Trials))
		}
		for ti := range reports[i].Trials {
			if reports[i].Trials[ti].Result.CompletionTime != direct[i].Trials[ti].Result.CompletionTime {
				t.Fatalf("report %d trial %d diverges from in-process sweep", i, ti)
			}
		}
	}

	if err := client.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Status(id); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status after delete: %v, want unknown-job error", err)
	}
}

// TestServerErrorPaths pins the HTTP status codes of every failure mode the
// CI smoke job and clients rely on.
func TestServerErrorPaths(t *testing.T) {
	store, err := Open(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewHandler(store))
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp := get("/jobs/deadbeef/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job result: %d, want 404", resp.StatusCode)
	}

	// Malformed and invalid submissions are 400s with an error body.
	for _, body := range []string{
		`{not json`,
		`{"sweep": []}`,                           // no specs
		`{"sweep": [{}], "shard_trials": -1}`,     // invalid job field
		`{"topology": {"name": "moebius-strip"}}`, // invalid bare scenario
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("submit %q: error body missing (%v)", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q: %d, want 400", body, resp.StatusCode)
		}
	}

	// A bare scenario posts as a one-spec job (the curl quickstart path).
	data, err := os.ReadFile("../../scenarios/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("bare scenario submit: %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		t.Fatalf("bare scenario submit: no id (%v)", err)
	}
	client := &Client{Base: srv.URL}
	if st, err := client.Wait(out.ID); err != nil || st.State != StateDone {
		t.Fatalf("bare scenario job: %+v, %v", st, err)
	}

	// Listing shows the finished job.
	listResp := get("/jobs")
	var list struct {
		Jobs []string `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range list.Jobs {
		found = found || id == out.ID
	}
	if !found {
		t.Fatalf("GET /jobs %v does not list %s", list.Jobs, out.ID)
	}
}
