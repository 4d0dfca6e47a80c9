package sched

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newTestGateway(t *testing.T, cfg Config, r Runner) (*Scheduler, *httptest.Server) {
	t.Helper()
	cfg.Dir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(r)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewGateway(s))
	t.Cleanup(func() {
		srv.Close()
		s.Stop()
	})
	return s, srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func TestGatewaySubmitAndStatus(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	_, srv := newTestGateway(t, Config{Workers: 1}, runner)

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	job := decodeJob(t, resp)
	if job.ID == "" || job.Tenant != "acl" {
		t.Fatalf("submitted job = %+v", job)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeJob(t, resp)
		if got.State.Terminal() {
			var result struct {
				OK bool `json:"ok"`
			}
			if got.State != StateDone || json.Unmarshal(got.Result, &result) != nil || !result.OK {
				t.Fatalf("terminal job = %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// List, with and without the tenant filter.
	for query, want := range map[string]int{"": 1, "?tenant=acl": 1, "?tenant=ghost": 0} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []Job `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != want {
			t.Fatalf("list %q returned %d jobs, want %d", query, len(list.Jobs), want)
		}
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	_, srv := newTestGateway(t, Config{}, runner)

	for name, body := range map[string]string{
		"not json":      `<xml/>`,
		"unknown field": `{"tenant": "acl", "kind": "cv", "hack": true}`,
		"no tenant":     `{"kind": "cv"}`,
	} {
		resp := postJSON(t, srv.URL+"/v1/jobs", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400", name, resp.Status)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %s, want 404", resp.Status)
	}
}

// TestGatewayBackpressure429 is the ISSUE's acceptance check at the
// HTTP layer: with the queue at capacity K, the (K+1)th submission is
// rejected with 429 and a Retry-After header.
func TestGatewayBackpressure429(t *testing.T) {
	runner := newStubRunner() // never released: the worker stays busy
	_, srv := newTestGateway(t, Config{Workers: 1, QueueCapacity: 2, RetryAfter: 4 * time.Second}, runner)
	t.Cleanup(func() { close(runner.release) })

	// One running + K queued.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %s", i, resp.Status)
		}
		if i == 0 {
			<-runner.started // ensure it left the queue before filling up
		}
	}
	resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %s, want 429", resp.Status)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	var apiErr struct {
		Error      string  `json:"error"`
		RetryAfter float64 `json:"retry_after_s"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.RetryAfter != 4 {
		t.Fatalf("retry_after_s = %v, want 4", apiErr.RetryAfter)
	}
}

func TestGatewayCancel(t *testing.T) {
	runner := newStubRunner()
	runner.blockCtx = true
	s, srv := newTestGateway(t, Config{Workers: 1}, runner)

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	job := decodeJob(t, resp)
	<-runner.started
	cresp := postJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", "")
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %s", cresp.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled job = %+v", final)
	}
}

// TestGatewaySSE streams a job's events over the wire and checks the
// stream replays the backlog, follows live progress, and terminates
// with the end event.
func TestGatewaySSE(t *testing.T) {
	runner := newStubRunner()
	_, srv := newTestGateway(t, Config{Workers: 1}, runner)

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	job := decodeJob(t, resp)
	<-runner.started

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	runner.release <- struct{}{} // let the job finish while we stream

	var eventTypes []string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			eventTypes = append(eventTypes, rest)
			if rest == "end" {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(eventTypes, ",")
	if !strings.Contains(joined, "queued") || !strings.Contains(joined, "done") || eventTypes[len(eventTypes)-1] != "end" {
		t.Fatalf("SSE event sequence = %v", eventTypes)
	}

	// A terminal job's stream replays and ends immediately.
	sresp2, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if !strings.Contains(string(body), "event: end") {
		t.Fatal("terminal job's SSE stream did not end")
	}
}

func TestGatewayLeasesAndMetrics(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	s, srv := newTestGateway(t, Config{Workers: 1}, runner)

	// Hold a lease by hand so the endpoint has something to show.
	lease, err := s.Leases().TryAcquire(ResourceSP200, "manual")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	var leases struct {
		Leases []LeaseInfo `json:"leases"`
	}
	err = json.NewDecoder(resp.Body).Decode(&leases)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases.Leases) != 1 || leases.Leases[0].Holder != "manual" {
		t.Fatalf("leases = %+v", leases.Leases)
	}
	lease.Release()

	resp = postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	job := decodeJob(t, resp)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := s.WaitTerminal(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(report), "sched.jobs.submitted") || !strings.Contains(string(report), "sched.jobs.done") {
		t.Fatalf("metrics report missing scheduler series:\n%s", report)
	}
}
