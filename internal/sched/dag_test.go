package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/ml"
	"ice/internal/netsim"
	"ice/internal/testutil"
	"ice/internal/workflow"
)

// deployLab stands up one fresh simulated lab with auditing on and
// returns it with the path of its audit journal.
func deployLab(t *testing.T) (*core.Deployment, string) {
	t.Helper()
	labDir := filepath.Join(t.TempDir(), "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(labDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}
	return d, filepath.Join(labDir, core.AuditFileName)
}

func runJob(t *testing.T, s *Scheduler, spec JobSpec) Job {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job %s = %s (%s), want DONE", job.ID, final.State, final.Error)
	}
	return final
}

func exampleDAG(t *testing.T, name string) json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "dag", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenCV pins what a cv job measures on a fresh lab, recorded from
// the hardwired tasks A–E runner before cv jobs became a compiled
// graph: the measurement digest, point count, anodic peak and the ML
// verdict of the seed-7 classifier.
type goldenCV struct {
	spec   JobSpec
	sha256 string
	points int
	peakUA float64
	class  string
}

var goldenCVs = []goldenCV{
	{JobSpec{Tenant: "acl", Kind: KindCV},
		"1b29587c5573f287227b212ee427652dc0621051e76a765978e01611fa8441d2", 1201, 40.58659, "normal"},
	{JobSpec{Tenant: "acl", Kind: KindCV, Points: 400, ScanRateMVs: 75},
		"0bd19a8f6d0b80b8da9f4d75904788c93de820cd1e2fefa06911164e1aa7bc48", 401, 49.1082, "normal"},
}

// freshLabScheduler starts a one-worker scheduler whose runner drives
// a fresh simulated lab with the given classifier (nil for none); t's
// cleanups stop it.
func freshLabScheduler(t *testing.T, clf *ml.Ensemble) *Scheduler {
	t.Helper()
	d, _ := deployLab(t)
	s, err := New(Config{Dir: filepath.Join(t.TempDir(), "state"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(&LabRunner{
		Connector:  &DeploymentConnector{D: d, Host: netsim.HostDGX},
		Leases:     s.Leases(),
		Dir:        s.Dir(),
		Classifier: clf,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// runCVOnFreshLab runs one cv job on a fresh lab with the given
// classifier and returns its result.
func runCVOnFreshLab(t *testing.T, spec JobSpec, clf *ml.Ensemble) CVResult {
	t.Helper()
	s := freshLabScheduler(t, clf)
	job := runJob(t, s, spec)
	var res CVResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := measuredFile(t, s, job.ID); got != res.File {
		t.Errorf("cv job's measured event names %q, result file %q", got, res.File)
	}
	return res
}

// measuredFile returns the message of the job's "measured" event —
// the acquire→retrieve boundary on its event stream — or "".
func measuredFile(t *testing.T, s *Scheduler, id string) string {
	t.Helper()
	past, _, unsub, err := s.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	unsub()
	for _, ev := range past {
		if ev.Type == "measured" {
			return ev.Message
		}
	}
	return ""
}

// TestDAGJobMatchesClassicCV is the headline equivalence drill: cv jobs
// (default and with points/scan-rate overrides) must reproduce the
// pinned measurement of the hardwired runner, and the shipped
// cv_classic.json DAG, run on an equally fresh lab, must produce the
// same digest, points and verdict — then hit the content-keyed cache
// on resubmission without touching the instrument again. The shipped
// campaign_round.json runs through the scheduler too, and nothing
// leaks.
func TestDAGJobMatchesClassicCV(t *testing.T) {
	testutil.CheckGoroutines(t)
	clf, err := dag.ClassifierForSeed(dag.DefaultClassifierSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenCVs {
		got := runCVOnFreshLab(t, g.spec, clf)
		if got.SHA256 != g.sha256 || got.Points != g.points || got.AnodicPeakUA != g.peakUA || got.ClassName != g.class {
			t.Errorf("cv job points=%d rate=%v = %+v, pinned sha %s points %d peak %v verdict %q",
				g.spec.Points, g.spec.ScanRateMVs, got, g.sha256, g.points, g.peakUA, g.class)
		}
	}
	classic := goldenCVs[0]

	// DAG path on fresh lab B.
	dB, auditB := deployLab(t)
	sB, err := New(Config{Dir: filepath.Join(t.TempDir(), "state"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sB.SetRunner(&LabRunner{
		Connector:  &DeploymentConnector{D: dB, Host: netsim.HostDGX},
		Leases:     sB.Leases(),
		Dir:        sB.Dir(),
		Classifier: clf,
		Metrics:    sB.Metrics(),
	})
	if err := sB.Start(); err != nil {
		t.Fatal(err)
	}
	defer sB.Stop()
	spec := JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "cv_classic.json")}
	dagJob := runJob(t, sB, spec)
	var res dag.Result
	if err := json.Unmarshal(dagJob.Result, &res); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]dag.NodeResult)
	for _, n := range res.Nodes {
		nodes[n.Node] = n
	}
	if got := nodes["d_retrieve"].Digest; got != classic.sha256 {
		t.Errorf("DAG measurement digest %s, classic %s — paths diverged", got, classic.sha256)
	}
	if got := nodes["d_analyze"].Points; got != classic.points {
		t.Errorf("DAG points %d, classic %d", got, classic.points)
	}
	if got := nodes["d_analyze"].AnodicPeakUA; got != classic.peakUA {
		t.Errorf("DAG anodic peak %v, classic %v", got, classic.peakUA)
	}
	if got := nodes["d_classify"].ClassName; got != classic.class {
		t.Errorf("DAG verdict %q, classic %q", got, classic.class)
	}
	if res.NodesRun != len(res.Nodes) {
		t.Errorf("first run: %d/%d nodes live", res.NodesRun, len(res.Nodes))
	}
	if got := measuredFile(t, sB, dagJob.ID); got != nodes["d_acquire"].File {
		t.Errorf("dag job's measured event names %q, acquire node file %q", got, nodes["d_acquire"].File)
	}

	// Resubmission: every cacheable node (acquire, retrieve, analyze,
	// classify) is served from the content-keyed cache; effectful
	// pyro/fill nodes re-run, so the dispense count doubles while the
	// acquisition count must not.
	rerunJob := runJob(t, sB, spec)
	var rerun dag.Result
	if err := json.Unmarshal(rerunJob.Result, &rerun); err != nil {
		t.Fatal(err)
	}
	if rerun.NodesCached < 4 {
		t.Errorf("re-run cached %d nodes, want >= 4 (acquire/retrieve/analyze/classify)", rerun.NodesCached)
	}
	if got := sB.Metrics().CounterValue("dag.nodes.cached"); got < 4 {
		t.Errorf("dag.nodes.cached = %d, want >= 4", got)
	}
	counts := testutil.AuditCounts(t, auditB)
	if counts["StartChannelSP200"] != 1 {
		t.Errorf("StartChannelSP200 ×%d across original+cached runs, want exactly 1", counts["StartChannelSP200"])
	}
	if counts["DispenseSyringePump"] != 2 {
		t.Errorf("DispenseSyringePump ×%d, want 2 (fills are never cached)", counts["DispenseSyringePump"])
	}
	if active := sB.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases: %+v", active)
	}

	// The two-cell campaign round runs on its own fresh lab (lab B's
	// cell already holds two fills; a third would rightly overflow it)
	// and must analyze both cells' branches.
	t.Run("campaign_round", func(t *testing.T) {
		s := freshLabScheduler(t, nil)
		job := runJob(t, s, JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "campaign_round.json")})
		var res dag.Result
		if err := json.Unmarshal(job.Result, &res); err != nil {
			t.Fatal(err)
		}
		analyzed := make(map[string]dag.NodeResult)
		for _, n := range res.Nodes {
			analyzed[n.Node] = n
		}
		for _, id := range []string{"c1_analyze", "c2_analyze"} {
			if analyzed[id].Points == 0 {
				t.Errorf("campaign branch %s produced no analysis: %+v", id, analyzed[id])
			}
		}
		if active := s.Leases().Active(); len(active) != 0 {
			t.Fatalf("leaked leases: %+v", active)
		}
	})
}

// TestCompiledCVMatchesShippedGraph holds the Go-compiled cv graph to
// examples/dag/cv_classic.json node for node — IDs, types, needs and
// spec digests (which ignore nocache) — so the two cannot drift apart.
// The one allowed difference is whether d_classify is present.
func TestCompiledCVMatchesShippedGraph(t *testing.T) {
	shipped, err := dag.DecodeSpec(exampleDAG(t, "cv_classic.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, classify := range []bool{true, false} {
		// The JSON round trip resolves defaults exactly as the engine
		// does, and proves the compiled graph passes admission rules.
		data, err := json.Marshal(compileCV(JobSpec{Tenant: "acl", Kind: KindCV}, classify))
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := dag.DecodeSpec(data)
		if err != nil {
			t.Fatalf("classify=%v: compiled graph invalid: %v", classify, err)
		}
		if compiled.Name != shipped.Name {
			t.Errorf("classify=%v: name %q, shipped %q", classify, compiled.Name, shipped.Name)
		}
		byID := make(map[string]*dag.Node, len(compiled.Nodes))
		for _, n := range compiled.Nodes {
			if !n.NoCache {
				t.Errorf("classify=%v: compiled node %s is cacheable; cv jobs always measure afresh", classify, n.ID)
			}
			byID[n.ID] = n
		}
		want := len(shipped.Nodes)
		if !classify {
			want--
		}
		if len(byID) != want {
			t.Errorf("classify=%v: compiled graph has %d nodes, want %d", classify, len(byID), want)
		}
		for _, sn := range shipped.Nodes {
			cn, ok := byID[sn.ID]
			if !ok {
				if classify || sn.ID != "d_classify" {
					t.Errorf("classify=%v: compiled graph lacks node %s", classify, sn.ID)
				}
				continue
			}
			if cn.Type != sn.Type || !slices.Equal(cn.Needs, sn.Needs) || cn.SpecDigest() != sn.SpecDigest() {
				t.Errorf("classify=%v: node %s drifted: compiled %s needs %v, shipped %s needs %v (or spec digest differs)",
					classify, sn.ID, cn.Type, cn.Needs, sn.Type, sn.Needs)
			}
		}
	}
}

// TestDAGCrashResumeExactlyOnce kills the daemon (kill -9 semantics)
// right after the retrieve node checkpoints, restarts over the same
// state directory, and requires completion with the finished nodes
// restored — the retrieve payload served from the content-keyed blob
// store — and an audit journal proving no command re-ran.
func TestDAGCrashResumeExactlyOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, audit := deployLab(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	connector := &DeploymentConnector{D: d, Host: netsim.HostDGX}

	s1, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	var crashOnce sync.Once
	lab1 := &LabRunner{Connector: connector, Leases: s1.Leases(), Dir: stateDir}
	grab := &ctxGrabRunner{inner: lab1, ctxs: make(map[string]context.Context)}
	lab1.OnTask = func(jobID string, rec workflow.TaskRecord) {
		if rec.TaskID != "d_retrieve" || rec.Status != "OK" {
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

	job, err := s1.Submit(JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "cv_classic.json")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never died at the crash seam")
	}

	s2, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		t.Fatal("crashed job missing after WAL replay")
	}
	if recovered.State != StatePending || !recovered.Resumed {
		t.Fatalf("replayed job = state %s resumed %v, want PENDING resumed", recovered.State, recovered.Resumed)
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
	if final.State != StateDone {
		t.Fatalf("resumed job = %s (%s), want DONE", final.State, final.Error)
	}
	if final.Attempts != 2 || !final.Resumed {
		t.Fatalf("resumed job attempts = %d resumed = %v, want 2 resumed", final.Attempts, final.Resumed)
	}
	var res dag.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.NodesRestored == 0 {
		t.Error("no nodes restored from checkpoint journal on resume")
	}
	nodes := make(map[string]dag.NodeResult)
	for _, n := range res.Nodes {
		nodes[n.Node] = n
	}
	// The restored retrieve's bytes came from the content-keyed blob
	// store; its digest must still match the lab's file right now.
	sess, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	defer mount.Close()
	sum, _, err := mount.Checksum(nodes["d_retrieve"].File)
	if err != nil {
		t.Fatal(err)
	}
	if sum != nodes["d_retrieve"].Digest {
		t.Fatalf("digest mismatch after resume: result %s, data channel %s", nodes["d_retrieve"].Digest, sum)
	}
	counts := testutil.AuditCounts(t, audit)
	for _, method := range []string{"WithdrawSyringePump", "DispenseSyringePump", "StartChannelSP200"} {
		if counts[method] != 1 {
			t.Errorf("audit journal shows %s ×%d, want exactly once", method, counts[method])
		}
	}
	if active := s2.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after recovery: %+v", active)
	}
}

// kindErrRunner simulates a runner build that lacks the submitted
// kind (a rolling upgrade skew): every run fails with
// ErrUnknownJobKind.
type kindErrRunner struct{}

func (kindErrRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	return nil, fmt.Errorf("%w %q", ErrUnknownJobKind, "warp")
}

// TestUnknownJobKindFailsTerminally covers the satellite: a kind no
// runner handles is workload-class — counted, failed on the first
// attempt, never requeued.
func TestUnknownJobKindFailsTerminally(t *testing.T) {
	// Runner-level contract first: LabRunner tags the error.
	lab := &LabRunner{}
	_, err := lab.Run(context.Background(), Job{Spec: JobSpec{Kind: "warp"}}, func(string, string) {})
	if !errors.Is(err, ErrUnknownJobKind) {
		t.Fatalf("LabRunner.Run(warp) = %v, want ErrUnknownJobKind", err)
	}

	s, err := New(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(kindErrRunner{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("job = %s, want FAILED", final.State)
	}
	if final.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (unknown kinds are never requeued)", final.Attempts)
	}
	if got := s.Metrics().CounterValue("sched.jobs.rejected.unknown_type"); got != 1 {
		t.Errorf("sched.jobs.rejected.unknown_type = %d, want 1", got)
	}
}

// TestDAGJobSpecValidation holds admission to the DAG rules: a dag
// job needs a valid document, and cv/campaign jobs reject one.
func TestDAGJobSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{Tenant: "acl", Kind: KindDAG},
		{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[]}`)},
		{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status","needs":["a"]}]}`)},
		{Tenant: "acl", Kind: KindDAG, Points: 100, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status"}]}`)},
		{Tenant: "acl", Kind: KindCV, DAG: json.RawMessage(`{}`)},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d validated, want rejection: %+v", i, spec)
		}
	}
	ok := JobSpec{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status"}]}`)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid dag spec rejected: %v", err)
	}
}
