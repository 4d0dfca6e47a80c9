package sched

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/netsim"
	"ice/internal/telemetry"
	"ice/internal/testutil"
)

// schedChaosSeed fixes the fault generator on a schedule under which
// 20% data-port loss provably interrupts the tenants' transfers (the
// loss-counter assertion below fails if a change shifts it away from
// faults entirely).
const schedChaosSeed = 11

// TestChaosTwoTenantsThroughGateway is the ISSUE's end-to-end chaos
// drill: two tenants submit fleet (campaign) jobs through icegated's
// HTTP API while the site hub loses 20% of data-port traffic, each
// loss tearing connections down mid-stream. Both jobs must complete
// exactly once — every round's acquisition started exactly once per
// the lab's audit journal, a digest-verified cv measurement riding the
// same lossy link — and no instrument lease or goroutine may leak.
func TestChaosTwoTenantsThroughGateway(t *testing.T) {
	testutil.CheckGoroutines(t)
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
	if err := d.AttachLab(7, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}

	metrics := telemetry.NewCollector()
	d.Network.SetSeed(schedChaosSeed)
	d.Network.SetMetrics(metrics)
	if err := d.Network.SetHubFaults(netsim.HubSite, netsim.FaultSpec{
		Loss:  0.20,
		Ports: []int{netsim.PaperPorts.Data},
	}); err != nil {
		t.Fatal(err)
	}

	// Every job reads through a self-healing mount: small chunks
	// checkpoint verified progress often, so the lossy link interrupts
	// transfers mid-file rather than between files. Both workers mint
	// mounts concurrently, so the bookkeeping is locked.
	var mountsMu sync.Mutex
	var mounts []*datachan.ReliableMount
	connector := &DeploymentConnector{
		D:    d,
		Host: netsim.HostDGX,
		NewMount: func() (datachan.Share, error) {
			rm := datachan.NewReliableMount(func() (net.Conn, error) {
				return d.Network.Dial(netsim.HostDGX, d.DataAddr)
			})
			rm.MaxRetries = 50
			rm.Backoff = time.Millisecond
			rm.MaxBackoff = 10 * time.Millisecond
			rm.ChunkBytes = 2048
			rm.SetMetrics(metrics)
			mountsMu.Lock()
			mounts = append(mounts, rm)
			mountsMu.Unlock()
			return rm, nil
		},
	}

	s, err := New(Config{
		Dir:     filepath.Join(base, "state"),
		Workers: 2,
		Metrics: metrics,
		Tenants: map[string]TenantLimits{"acl": {Weight: 3}, "dgx": {Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(&LabRunner{
		Connector:        connector,
		Leases:           s.Leases(),
		Dir:              s.Dir(),
		CampaignCVPoints: 300,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(NewGateway(s))
	defer srv.Close()

	submit := func(spec string) Job {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit rejected: %s\n%s", resp.Status, body)
		}
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return job
	}

	// Each tenant's fleet: two cells, two fixed rounds per cell. The
	// concentrations differ per tenant so cross-wired measurements
	// would be visible in the peaks.
	aclJob := submit(`{"tenant": "acl", "kind": "campaign", "cells": [
		{"name": "acl-low",  "rounds": [{"concentration_mm": 1}, {"concentration_mm": 1}]},
		{"name": "acl-high", "rounds": [{"concentration_mm": 4}, {"concentration_mm": 4}]}
	]}`)
	dgxJob := submit(`{"tenant": "dgx", "kind": "campaign", "cells": [
		{"name": "dgx-a", "rounds": [{"concentration_mm": 2}, {"concentration_mm": 2}]},
		{"name": "dgx-b", "rounds": [{"concentration_mm": 2}, {"concentration_mm": 2}]}
	]}`)
	// A cv job rides the same lossy link; its result carries the
	// end-to-end digest the data channel must reproduce.
	cvJob := submit(`{"tenant": "acl", "kind": "cv", "points": 400}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(map[string]Job)
	for _, job := range []Job{aclJob, dgxJob, cvJob} {
		final, err := s.WaitTerminal(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %s (%s) = %s under chaos: %s", final.ID, final.Tenant, final.State, final.Error)
		}
		if final.Attempts != 1 {
			t.Fatalf("job %s took %d attempts; chaos must heal inside the mount, not via re-dispatch", final.ID, final.Attempts)
		}
		results[final.ID] = final
	}

	// Both fleets complete: every cell ran both rounds, and the 4 mM
	// cell's peak is ≈ 4× the 1 mM cell's — retried transfers did not
	// duplicate or cross-wire any tenant's measurements.
	peaks := make(map[string]float64)
	for _, id := range []string{aclJob.ID, dgxJob.ID} {
		var res CampaignResult
		if err := json.Unmarshal(results[id].Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 2 {
			t.Fatalf("job %s finished %d cells, want 2", id, len(res.Cells))
		}
		for _, cell := range res.Cells {
			if len(cell.Rounds) != 2 {
				t.Fatalf("cell %s ran %d rounds under chaos, want 2", cell.Name, len(cell.Rounds))
			}
			for _, r := range cell.Rounds {
				if r.PeakUA <= 0 {
					t.Fatalf("cell %s round %d has no peak", cell.Name, r.Round)
				}
			}
			peaks[cell.Name] = cell.Rounds[0].PeakUA
		}
	}
	if ratio := peaks["acl-high"] / peaks["acl-low"]; ratio < 3.2 || ratio > 4.8 {
		t.Errorf("4 mM / 1 mM peak ratio = %.2f under chaos, want ≈ 4", ratio)
	}

	// Digest verification across the lossy link.
	var cv CVResult
	if err := json.Unmarshal(results[cvJob.ID].Result, &cv); err != nil {
		t.Fatal(err)
	}
	verify := datachan.NewReliableMount(func() (net.Conn, error) {
		return d.Network.Dial(netsim.HostDGX, d.DataAddr)
	})
	verify.MaxRetries = 50
	verify.Backoff = time.Millisecond
	verify.MaxBackoff = 10 * time.Millisecond
	defer verify.Close()
	sum, _, err := verify.Checksum(cv.File)
	if err != nil {
		t.Fatal(err)
	}
	if sum != cv.SHA256 || cv.SHA256 == "" {
		t.Fatalf("cv digest mismatch under chaos: result %q, data channel %q", cv.SHA256, sum)
	}

	// Exactly-once at the instruments: the audit journal shows one
	// acquisition start per round plus one for the cv job, and one fill
	// per cv-style round — no duplicates despite the chaos.
	auditData, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.ParseAuditJournal(auditData)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, e := range entries {
		if e.Method == "StartChannelSP200" {
			starts++
		}
	}
	if wantStarts := 2*2*2 + 1; starts != wantStarts {
		t.Errorf("audit journal shows %d acquisition starts, want exactly %d", starts, wantStarts)
	}

	// The chaos schedule must actually have engaged, and every healed
	// transfer was digest-checked with zero mismatches.
	if v := metrics.CounterValue("netsim.faults.loss"); v == 0 {
		t.Error("no losses injected — chaos schedule did not engage")
	}
	healed := int64(0)
	for _, rm := range mounts {
		stats := rm.Stats()
		healed += stats.Redials + stats.Resumes
		if stats.ChecksumFailures != 0 {
			t.Errorf("mount saw %d checksum failures under pure loss", stats.ChecksumFailures)
		}
	}
	if healed == 0 {
		t.Error("jobs survived without any redials or resumes — faults never hit the data path")
	}

	if active := s.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after chaos run: %+v", active)
	}
}
