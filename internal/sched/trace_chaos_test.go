package sched

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/netsim"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// TestTraceChaosFleetEventAttribution runs a two-cell fleet job while
// the site hub loses 20% of data-port traffic, then audits the trace:
// every redial and resume the reliable mounts performed must appear as
// a timed event on the data-class retrieval span that was active when
// the fault healed — none lost, none attributed to the wrong phase.
func TestTraceChaosFleetEventAttribution(t *testing.T) {
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

	d.Network.SetSeed(schedChaosSeed)
	if err := d.Network.SetHubFaults(netsim.HubSite, netsim.FaultSpec{
		Loss:  0.20,
		Ports: []int{netsim.PaperPorts.Data},
	}); err != nil {
		t.Fatal(err)
	}

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
			mountsMu.Lock()
			mounts = append(mounts, rm)
			mountsMu.Unlock()
			return rm, nil
		},
	}

	s, err := New(Config{Dir: filepath.Join(base, "state"), Workers: 1})
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

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCampaign, Cells: []CellSpec{
		{Name: "cell-a", Rounds: []RoundSpec{{ConcentrationMM: 1}, {ConcentrationMM: 1}}},
		{Name: "cell-b", Rounds: []RoundSpec{{ConcentrationMM: 4}, {ConcentrationMM: 4}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("fleet job = %s under chaos: %s", final.State, final.Error)
	}

	healed := int64(0)
	for _, rm := range mounts {
		stats := rm.Stats()
		healed += stats.Redials + stats.Resumes
	}
	if healed == 0 {
		t.Fatal("no redials or resumes — the chaos schedule never hit the data path")
	}

	recs := waitForRoot(t, s, job)
	events := 0
	for _, rec := range recs {
		for _, ev := range rec.Events {
			if ev.Name != "datachan.redial" && ev.Name != "datachan.resume" {
				continue
			}
			events++
			if rec.Class != trace.ClassData {
				t.Errorf("healing event %s landed on %q (class %q), want a data-class retrieval span",
					ev.Name, rec.Name, rec.Class)
			}
			if rec.Name != "campaign.retrieve" {
				t.Errorf("healing event %s landed on span %q, want campaign.retrieve", ev.Name, rec.Name)
			}
			if ev.Time.Before(rec.Start) || ev.Time.After(rec.End) {
				t.Errorf("healing event %s at %v lies outside its span's window [%v, %v]",
					ev.Name, ev.Time, rec.Start, rec.End)
			}
			if hold := rec.Attrs["holder"]; hold != "cell-a" && hold != "cell-b" {
				t.Errorf("healing event %s on span without a cell holder (attrs %v)", ev.Name, rec.Attrs)
			}
		}
	}
	if int64(events) != healed {
		t.Errorf("mounts healed %d faults but the trace carries %d healing events — attribution lost some",
			healed, events)
	}
	if orphans := trace.Orphans(recs); len(orphans) != 0 {
		t.Errorf("chaos trace has %d orphaned spans: %v", len(orphans), orphans)
	}
}

// TestTraceCrashRecoveryStitching kills the daemon once the cv
// graph's c_fill node checkpoints (no goodbye records), restarts over
// the same state directory and trace backend, and verifies the resumed
// job's spans stitch into the original trace: two roots (one per
// attempt), no orphaned spans, a task.restored event for the
// checkpointed nodes, and no re-executed node span.
func TestTraceCrashRecoveryStitching(t *testing.T) {
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

	stateDir := filepath.Join(base, "state")
	connector := &DeploymentConnector{D: d, Host: netsim.HostDGX}
	// Both incarnations share one tracer, standing in for the durable
	// trace backend a real restart would re-open.
	tracer := trace.New(trace.WithStore(trace.NewStore(0, 0)), trace.WithRecorder(trace.NewRecorder(512)))

	s1, err := New(Config{Dir: stateDir, Workers: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	var crashOnce sync.Once
	lab1 := &LabRunner{Connector: connector, Leases: s1.Leases(), Dir: stateDir}
	grab := &ctxGrabRunner{inner: lab1, ctxs: make(map[string]context.Context)}
	lab1.OnTask = func(jobID string, rec workflow.TaskRecord) {
		if rec.TaskID != "c_fill" || rec.Status != "OK" {
			return
		}
		crashOnce.Do(func() {
			go func() {
				s1.Kill()
				close(killed)
			}()
			<-grab.ctx(jobID).Done()
		})
	}
	s1.SetRunner(grab)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}

	job, err := s1.Submit(JobSpec{Tenant: "acl", Kind: KindCV, Points: 400})
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID == "" {
		t.Fatal("job has no trace ID")
	}
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never died at the crash seam")
	}

	s2, err := New(Config{Dir: stateDir, Workers: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		t.Fatal("crashed job missing after replay")
	}
	if recovered.TraceID != job.TraceID {
		t.Fatalf("WAL replay lost the trace ID: %q, want %q", recovered.TraceID, job.TraceID)
	}
	s2.SetRunner(&LabRunner{Connector: connector, Leases: s2.Leases(), Dir: stateDir})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s2.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("resumed job = %s attempts %d: %s", final.State, final.Attempts, final.Error)
	}

	recs := waitForRoot(t, s2, final)

	// Both incarnations re-rooted into the one trace.
	roots, restored := 0, 0
	live := make(map[string]int) // spans of nodes that ran, not restored
	for _, rec := range recs {
		if rec.Parent == "" {
			roots++
		}
		if rec.Attrs["restored"] != "true" {
			live[rec.Name]++
		}
		for _, ev := range rec.Events {
			if ev.Name == "task.restored" {
				restored++
			}
		}
	}
	if roots != 2 {
		t.Errorf("stitched trace has %d roots, want 2 (one per attempt)", roots)
	}
	if restored == 0 {
		t.Error("no task.restored events — the resume is invisible in the trace")
	}
	// The checkpointed fill was restored, not re-executed: one live
	// dag.c_fill span (attempt one's), one retrieval (attempt two's).
	if live["dag.c_fill"] != 1 {
		t.Errorf("trace has %d live dag.c_fill spans, want exactly 1 (resume must not re-run the fill)", live["dag.c_fill"])
	}
	if live["dag.d_retrieve"] != 1 {
		t.Errorf("trace has %d live dag.d_retrieve spans, want exactly 1", live["dag.d_retrieve"])
	}

	// The stitched trace is parent-complete: the crash lost no span an
	// existing record still points at.
	if orphans := trace.Orphans(recs); len(orphans) != 0 {
		t.Errorf("stitched trace has %d orphaned spans after crash recovery: %v", len(orphans), orphans)
	}
}

// waitForRoot fetches the job's trace from the scheduler's store,
// waiting out the hair's-width race between WaitTerminal returning and
// complete() closing the root span.
func waitForRoot(t *testing.T, s *Scheduler, job Job) []trace.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := s.Tracer().Store().Trace(job.TraceID)
		for _, rec := range recs {
			if rec.Name == "job "+job.ID && rec.Parent == "" {
				return recs
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never got its root span (%d spans stored)", job.TraceID, len(recs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
