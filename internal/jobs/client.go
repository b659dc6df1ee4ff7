package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"amac/internal/scenario"
)

// Client talks to an amacd daemon. The zero HTTPClient uses
// http.DefaultClient; jobs can run for a long time, so polling requests
// are short and the client never holds a connection across a job.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:7437".
	Base string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	HTTPClient *http.Client
	// Poll is the status polling interval of Wait; 0 selects 100ms.
	Poll time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// decodeError turns a non-2xx API response into an error carrying the
// server's message.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("amacd: %s", e.Error)
	}
	return fmt.Errorf("amacd: %s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// Submit posts a job and returns its ID.
func (c *Client) Submit(job Spec) (string, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Post(c.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("amacd: decode submit response: %w", err)
	}
	return out.ID, nil
}

// Status fetches a job's progress.
func (c *Client) Status(id string) (JobStatus, error) {
	resp, err := c.http().Get(c.url("/jobs/" + id))
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("amacd: decode status: %w", err)
	}
	return st, nil
}

// Result fetches a finished job's canonical result bytes.
func (c *Client) Result(id string) ([]byte, error) {
	resp, err := c.http().Get(c.url("/jobs/" + id + "/result"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Delete removes a finished job from the daemon.
func (c *Client) Delete(id string) error {
	req, err := http.NewRequest(http.MethodDelete, c.url("/jobs/"+id), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// Wait polls until the job leaves the queued/running states and returns its
// final status.
func (c *Client) Wait(id string) (JobStatus, error) {
	poll := c.Poll
	if poll == 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		time.Sleep(poll)
	}
}

// RunJob submits a job, waits for it, and returns the decoded result.
func (c *Client) RunJob(job Spec) (*Result, error) {
	id, err := c.Submit(job)
	if err != nil {
		return nil, err
	}
	st, err := c.Wait(id)
	if err != nil {
		return nil, err
	}
	if st.State == StateFailed {
		return nil, fmt.Errorf("amacd: job %s failed: %s", id, st.Error)
	}
	data, err := c.Result(id)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("amacd: decode result: %w", err)
	}
	return &res, nil
}

// RunSpecs executes a spec grid on the daemon and reconstructs per-spec
// reports — a drop-in remote counterpart of scenario.Sweep used by the
// amacsim/amacbench -server modes. The daemon picks its own shard plan and
// parallelism; results are byte-identical regardless.
func (c *Client) RunSpecs(name string, specs []scenario.Spec) ([]*scenario.Report, error) {
	res, err := c.RunJob(Spec{Name: name, Sweep: specs})
	if err != nil {
		return nil, err
	}
	return Reports(res), nil
}
