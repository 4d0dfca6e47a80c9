package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/potentiostat"
	"ice/internal/sched"
	"ice/internal/sched/health"
	"ice/internal/testutil"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// runHealthSmoke is the instrument-health acceptance drill (make
// health-smoke). It wedges the simulated potentiostat mid-acquisition
// and requires the full supervision loop to fire:
//
//  1. the acquire-phase budget detects the wedge in seconds, the
//     breaker trips, the instrument is quarantined and fenced
//     (AbortSP200), and the job is checkpoint-requeued, not failed;
//  2. once the fault clears, a half-open recovery probe (status read +
//     busy=0) closes the breaker and the requeued job resumes from its
//     journal and completes — with every liquid-handling command and
//     every completed acquisition happening exactly once;
//  3. the job's trace carries instrument.quarantine and
//     instrument.recovered events, /v1/healthz shows the breaker's
//     open/recover history, and no lease or goroutine leaks;
//  4. separately, a submission whose deadline is below the facility
//     minimum bounces at admission with 503 + Retry-After instead of
//     ever occupying a lease.
func runHealthSmoke(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	baseline := runtime.NumGoroutine()

	labDir := filepath.Join(dir, "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		return err
	}
	d, err := core.Deploy(labDir, 0)
	if err != nil {
		return fmt.Errorf("deploy simulated lab: %v", err)
	}
	defer d.Close()
	connector := &sched.DeploymentConnector{D: d, Host: netsim.HostDGX}

	exp, err := trace.NewJSONLExporter(filepath.Join(dir, "trace.jsonl"), 100*time.Millisecond)
	if err != nil {
		return err
	}
	defer exp.Close()
	tracer := trace.New(
		trace.WithStore(trace.NewStore(0, 0)),
		trace.WithRecorder(trace.NewRecorder(512)),
		trace.WithExporter(exp),
	)

	s, err := sched.New(sched.Config{
		Dir:           filepath.Join(dir, "state"),
		QueueCapacity: 16,
		Workers:       2,
		LeaseTTL:      2 * time.Second,
		RetryAfter:    time.Second,
		Tracer:        tracer,
		Health: sched.HealthConfig{
			ProbeInterval:    200 * time.Millisecond,
			ProbeTimeout:     500 * time.Millisecond,
			FailureThreshold: 2,
			OpenFor:          time.Second,
			RetryBudget:      2,
			MinDeadline:      500 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}

	// The fault arms at an exact node boundary: the moment c_fill (the
	// cell fill) checkpoints OK, the potentiostat wedges — commands
	// still answer, but acquisition streaming stalls. The d_acquire
	// node's budget is the only thing that can catch it.
	sp := d.Agent.SP200()
	var wedgeOnce sync.Once
	s.SetRunner(&sched.LabRunner{
		Connector:     connector,
		Leases:        s.Leases(),
		Dir:           s.Dir(),
		WaitPoll:      10 * time.Millisecond,
		WaitTimeout:   30 * time.Second,
		AcquireBudget: 1500 * time.Millisecond,
		OnTask: func(jobID string, rec workflow.TaskRecord) {
			if rec.TaskID == "c_fill" && rec.Status == "OK" {
				wedgeOnce.Do(func() {
					sp.InjectFault(potentiostat.DeviceFault{Mode: potentiostat.FaultWedgeBusy})
					log.Printf("health-smoke: wedged the potentiostat after the c_fill node (job %s)", jobID)
				})
			}
		},
	})
	gw := sched.NewGateway(s)
	prober := wireProber(s, gw, connector, sched.ResourceSP200, sched.ResourceJKem)
	defer prober.Close()
	if err := s.Start(); err != nil {
		return err
	}
	defer s.Stop()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: gw}
	go srv.Serve(l)
	defer srv.Close()
	base := "http://" + l.Addr().String()

	// Drill A: an unmeetable deadline must bounce at admission — 503
	// with a Retry-After hint — never reaching the queue or a lease.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant": "acl", "kind": "cv", "deadline_ms": 100}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("deadline drill: want 503, got %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("deadline drill: 503 carries no Retry-After header")
	}
	log.Printf("health-smoke: unmeetable deadline rejected at admission (503, Retry-After %ss)",
		resp.Header.Get("Retry-After"))

	// Drill B: the wedge. Submit a cv job; the OnTask hook wedges the
	// instrument after the fill.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant": "acl", "kind": "cv", "points": 600}`))
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var job sched.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return err
	}
	log.Printf("health-smoke: submitted %s", job.ID)

	getJob := func() (sched.Job, error) {
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return sched.Job{}, err
		}
		defer resp.Body.Close()
		var cur sched.Job
		return cur, json.NewDecoder(resp.Body).Decode(&cur)
	}

	// The quarantine must checkpoint-requeue the job (Resumed flips
	// true), well inside the lease TTL it would otherwise ride out.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := getJob()
		if err != nil {
			return err
		}
		if cur.Resumed {
			log.Printf("health-smoke: %s checkpoint-requeued (attempt %d)", job.ID, cur.Attempts)
			break
		}
		if cur.State.Terminal() {
			return fmt.Errorf("job %s ended %s before any requeue: %s", job.ID, cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s was never checkpoint-requeued", job.ID)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Wait for the quarantine fence to land: the breaker-open abort is
	// asynchronous, and clearing the fault before it arrives would let
	// the wedged run complete behind the scheduler's back (which the
	// exactly-once audit below would rightly flag). The fence abort
	// terminates the wedged acquisition, so busy drops to 0 while the
	// fault is still injected — wedge-busy answers status by design.
	for !strings.Contains(sp.Status(), "busy=0") {
		if time.Now().After(deadline) {
			return fmt.Errorf("quarantine fence never aborted the wedged acquisition: %s", sp.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Clear the fault: the next half-open recovery probe sees an idle,
	// answering instrument and closes the breaker; the parked job
	// redispatches and resumes from its journal.
	sp.ClearFault()
	log.Print("health-smoke: fault cleared, waiting for recovery + resume")
	for {
		cur, err := getJob()
		if err != nil {
			return err
		}
		if cur.State.Terminal() {
			if cur.State != sched.StateDone {
				return fmt.Errorf("job %s ended %s: %s", job.ID, cur.State, cur.Error)
			}
			if cur.Attempts < 2 {
				return fmt.Errorf("job %s finished with %d attempt(s); the wedge never bit", job.ID, cur.Attempts)
			}
			log.Printf("health-smoke: %s DONE after %d attempts: %s", job.ID, cur.Attempts, cur.Result)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s did not finish after recovery", job.ID)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Exactly-once audit: the fill's dispense ran once (tasks A–C were
	// restored from the journal, not re-executed), and exactly one
	// acquisition completed (the wedged one was fenced into an abort,
	// never a second silent success).
	dispenses := 0
	for _, line := range d.Agent.SBC().CommandLog() {
		if strings.Contains(line, "SYRINGEPUMP_DISPENSE") {
			dispenses++
		}
	}
	if dispenses != 1 {
		return fmt.Errorf("exactly-once violated: %d dispense commands in the audit log (want 1)", dispenses)
	}
	completed := 0
	for _, line := range sp.EventLog() {
		if strings.Contains(line, "> data record") {
			completed++
		}
	}
	if completed != 1 {
		return fmt.Errorf("exactly-once violated: %d completed acquisitions (want 1)", completed)
	}

	// The breaker's history must show the round trip: opened at least
	// once, recovered, and closed now.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	var hz struct {
		OK          bool                    `json:"ok"`
		Quarantined int                     `json:"quarantined"`
		Instruments []health.ResourceHealth `json:"instruments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if hz.Quarantined != 0 {
		return fmt.Errorf("healthz still reports %d quarantined instruments", hz.Quarantined)
	}
	sawRoundTrip := false
	for _, ih := range hz.Instruments {
		if ih.Resource == sched.ResourceSP200 && ih.Opens >= 1 && ih.Recovered >= 1 && ih.State == health.Closed {
			sawRoundTrip = true
		}
	}
	if !sawRoundTrip {
		return fmt.Errorf("healthz shows no open→recover round trip for %s: %+v", sched.ResourceSP200, hz.Instruments)
	}

	// The stitched trace must tell the story: quarantine and recovery
	// events landed on the job's spans.
	resp, err = http.Get(base + "/v1/traces/" + job.TraceID)
	if err != nil {
		return err
	}
	var tr sched.TraceResponse
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil {
		return err
	}
	wantEvents := map[string]bool{"instrument.quarantine": false, "instrument.recovered": false, "sched.requeue": false}
	for _, rec := range tr.Spans {
		for _, ev := range rec.Events {
			if _, ok := wantEvents[ev.Name]; ok {
				wantEvents[ev.Name] = true
			}
		}
	}
	for name, seen := range wantEvents {
		if !seen {
			return fmt.Errorf("trace %s is missing a %s event", job.TraceID, name)
		}
	}

	// No leaked leases.
	resp, err = http.Get(base + "/v1/leases")
	if err != nil {
		return err
	}
	var leases struct {
		Leases []sched.LeaseInfo `json:"leases"`
	}
	err = json.NewDecoder(resp.Body).Decode(&leases)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(leases.Leases) != 0 {
		return fmt.Errorf("leaked leases after completion: %+v", leases.Leases)
	}

	// No leaked goroutines: tear everything down and require the count
	// to settle back near the pre-drill baseline.
	srv.Close()
	s.Stop()
	prober.Close()
	exp.Close()
	d.Close()
	if err := testutil.WaitGoroutines(baseline, 8, 5*time.Second); err != nil {
		return err
	}
	log.Printf("health-smoke: goroutines settled (baseline %d)", baseline)
	return nil
}
