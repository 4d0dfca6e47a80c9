package sched

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/testutil"
	"ice/internal/trace"
)

// TestGatewayTraceEndToEnd is the tracing acceptance drill: submit a
// job through POST /v1/jobs, fetch its trace by the returned trace ID,
// and verify the span tree is parent-complete and the critical-path
// breakdown partitions the job's wall time. The cv case follows the
// tree from the scheduler through the cv graph's nodes (tasks A–E)
// and pyro RPCs to the data-channel retrieval; the campaign case runs
// the two-cell fleet shape, whose WAN retrieval pipelines under the
// sibling cell's instrument hold.
func TestGatewayTraceEndToEnd(t *testing.T) {
	t.Run("cv", testGatewayTraceCV)
	t.Run("campaign", testGatewayTraceCampaign)
}

// traceThroughGateway runs one job, submitted over HTTP, to DONE on a
// fresh simulated lab and returns the gateway URL, the job and its
// trace once the root span has landed in the store. Everything it
// starts is torn down by t's cleanups.
func traceThroughGateway(t *testing.T, spec string) (string, Job, TraceResponse) {
	t.Helper()
	base := t.TempDir()
	labDir := filepath.Join(base, "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(labDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.AttachLab(1, 0); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Dir: filepath.Join(base, "state"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(&LabRunner{
		Connector:        &DeploymentConnector{D: d, Host: netsim.HostDGX},
		Leases:           s.Leases(),
		Dir:              s.Dir(),
		CampaignCVPoints: 300,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	srv := httptest.NewServer(NewGateway(s))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID == "" {
		t.Fatal("submitted job carries no trace ID")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job = %s: %s", final.State, final.Error)
	}

	// The root span only closes (and lands in the store) once complete()
	// runs, which races WaitTerminal's channel close by a hair.
	var tr TraceResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(srv.URL + "/v1/traces/" + job.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK && hasSpan(tr.Spans, "job "+job.ID) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never served a root span (status %d, %d spans)",
				job.TraceID, resp.StatusCode, len(tr.Spans))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if active := s.Leases().Active(); len(active) != 0 {
		t.Errorf("leaked leases after the traced job: %+v", active)
	}
	return srv.URL, final, tr
}

func testGatewayTraceCV(t *testing.T) {
	testutil.CheckGoroutines(t)
	url, job, tr := traceThroughGateway(t, `{"tenant": "acl", "kind": "cv", "points": 400}`)

	// Every layer contributed spans, all in the job's one trace.
	wantSpans := []string{
		"job " + job.ID, // scheduler root
		"sched.queued", "sched.run", "sched.connect",
		"lease.acquire", "lease.held",
		"dag.a_jkem", "dag.a_sp200", "dag.b_gas", "dag.b_vial", "dag.b_temp", // tasks A–B
		"dag.c_fill", "dag.d_acquire", "dag.d_retrieve", "dag.d_analyze", // tasks C–D
		"dag.e_exit", "dag.e_disconnect", // task E
	}
	for _, name := range wantSpans {
		if !hasSpan(tr.Spans, name) {
			t.Errorf("trace is missing span %q", name)
		}
	}
	foundRPC := false
	for _, rec := range tr.Spans {
		if rec.TraceID != job.TraceID {
			t.Fatalf("span %q belongs to trace %s, want %s", rec.Name, rec.TraceID, job.TraceID)
		}
		if strings.HasPrefix(rec.Name, "call ") && rec.Class == trace.ClassControl {
			foundRPC = true
		}
	}
	if !foundRPC {
		t.Error("no pyro client RPC spans in the trace")
	}
	if orphans := trace.Orphans(tr.Spans); len(orphans) != 0 {
		t.Errorf("trace has %d orphaned spans: %v", len(orphans), orphans)
	}

	// The dag.d_retrieve span is the data phase, in the job's span tree.
	byID := make(map[string]*trace.Record, len(tr.Spans))
	var retrieve *trace.Record
	for i := range tr.Spans {
		byID[tr.Spans[i].SpanID] = &tr.Spans[i]
		if tr.Spans[i].Name == "dag.d_retrieve" {
			retrieve = &tr.Spans[i]
		}
	}
	if retrieve.Class != trace.ClassData {
		t.Errorf("dag.d_retrieve class = %q, want %q", retrieve.Class, trace.ClassData)
	}
	root := retrieve
	for root.Parent != "" && byID[root.Parent] != nil {
		root = byID[root.Parent]
	}
	if root.Name != "job "+job.ID {
		t.Errorf("dag.d_retrieve sits under root %q, want the job's root span", root.Name)
	}

	// The critical-path decomposition: every phase nonzero, and the
	// segments plus idle partition the wall time (±5% per the ISSUE;
	// the sweep is exact by construction, the slack covers rounding).
	b := tr.Breakdown
	if b.Instrument <= 0 || b.Data <= 0 || b.Analysis <= 0 || b.Sched <= 0 {
		t.Errorf("breakdown has empty phases: %+v", b)
	}
	sum := b.Instrument + b.Data + b.Analysis + b.Sched + b.Control + b.Other + b.Idle
	if b.Wall <= 0 {
		t.Fatalf("breakdown wall = %v", b.Wall)
	}
	if diff := sum - b.Wall; diff < -b.Wall/20 || diff > b.Wall/20 {
		t.Errorf("segments sum to %v, wall is %v (diff %v)", sum, b.Wall, diff)
	}
	// Task E's teardown is best-effort: a Disconnect against an already
	// powered-down instrument errors benignly and the workflow ignores
	// it, but the trace still records the failed RPC faithfully. No
	// other span may carry an error on a clean run.
	for _, rec := range tr.Spans {
		if rec.Error != "" && !strings.Contains(rec.Name, "Disconnect") {
			t.Errorf("span %q errored on a clean run: %s", rec.Name, rec.Error)
		}
	}

	// The trace is listed in the summary index too.
	resp, err := http.Get(url + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sum := range list.Traces {
		if sum.TraceID == job.TraceID {
			found = true
			if sum.Root != "job "+job.ID {
				t.Errorf("summary root = %q, want %q", sum.Root, "job "+job.ID)
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from /v1/traces", job.TraceID)
	}

	// And the metrics snapshot carries the tracer's series.
	resp, err = http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace.spans.finished", "trace.store.traces", "sched.jobs.done"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("metrics missing %q:\n%s", want, report)
		}
	}
}

// testGatewayTraceCampaign traces the two-cell campaign: every layer
// of the fleet workflow contributes spans, none is orphaned, and the
// instrument, data and scheduling phases all land on the critical
// path, which partitions the wall time.
func testGatewayTraceCampaign(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, _, tr := traceThroughGateway(t, `{
		"tenant": "acl", "kind": "campaign", "cells": [
			{"name": "cell-a", "rounds": [{"concentration_mm": 1}, {"concentration_mm": 2}]},
			{"name": "cell-b", "rounds": [{"concentration_mm": 4}, {"concentration_mm": 8}]}
		]}`)

	for _, name := range []string{"sched.run", "campaign.round 1", "campaign.acquire", "campaign.retrieve", "campaign.analyze"} {
		if !hasSpan(tr.Spans, name) {
			t.Errorf("trace is missing span %q (%d spans)", name, len(tr.Spans))
		}
	}
	if orphans := trace.Orphans(tr.Spans); len(orphans) != 0 {
		t.Errorf("trace has %d orphaned spans: %v", len(orphans), orphans)
	}
	b := tr.Breakdown
	if b.Wall <= 0 || b.Instrument <= 0 || b.Data <= 0 || b.Sched <= 0 {
		t.Errorf("critical path has empty phases:\n%s", trace.RenderBreakdown(b))
	}
	sum := b.Instrument + b.Data + b.Analysis + b.Sched + b.Control + b.Other + b.Idle
	if diff := sum - b.Wall; diff < -b.Wall/20 || diff > b.Wall/20 {
		t.Errorf("segments sum to %v against wall %v:\n%s", sum, b.Wall, trace.RenderBreakdown(b))
	}
}

func hasSpan(recs []trace.Record, name string) bool {
	for _, rec := range recs {
		if rec.Name == name {
			return true
		}
	}
	return false
}
