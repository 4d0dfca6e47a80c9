package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/netsim"
	"ice/internal/sched"
	"ice/internal/testutil"
	"ice/internal/workflow"
)

// grabRunner wraps a sched.Runner and captures each job's context so
// the crash seam can block until the kill has actually cut the job —
// the same trick the recovery tests use.
type grabRunner struct {
	inner sched.Runner
	mu    sync.Mutex
	ctxs  map[string]context.Context
}

func (r *grabRunner) Run(ctx context.Context, job sched.Job, emit func(string, string)) (json.RawMessage, error) {
	r.mu.Lock()
	r.ctxs[job.ID] = ctx
	r.mu.Unlock()
	return r.inner.Run(ctx, job, emit)
}

func (r *grabRunner) ctx(id string) context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctxs[id]
}

// runDAGSmoke is the DAG-engine acceptance drill (make dag-smoke):
//
//  1. equivalence — a cv job on a fresh simulated lab must reproduce
//     the pinned measurement digest of the paper's workflow, and the
//     shipped examples/dag/cv_classic.json spec, run on an equally
//     fresh lab, must reproduce it bit for bit (same SHA-256) with the
//     same ML normality verdict;
//  2. caching — resubmitting the identical spec serves every cacheable
//     node (acquire/retrieve/analyze/classify) from the content-keyed
//     cache: the audit journal still shows exactly one acquisition,
//     while the effectful fill honestly re-runs;
//  3. crash-resume — the daemon dies (kill -9 semantics) right after
//     the retrieve node checkpoints; a fresh daemon over the same
//     state directory resumes, restores the finished nodes from the
//     journal + blob store, and completes with every liquid-moving
//     command and acquisition having run exactly once;
//  4. the campaign_round.json example (two cells, overlapped
//     instrument/WAN phases) completes with both analyze branches;
//  5. no leases or goroutines leak.
func runDAGSmoke(dir string) error {
	// The default cv program's measurement on a fresh lab, pinned from
	// the hardwired tasks A–E runner that cv jobs used to run through.
	const pinnedSHA256 = "1b29587c5573f287227b212ee427652dc0621051e76a765978e01611fa8441d2"

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	baseline := runtime.NumGoroutine()

	classicSpec, err := os.ReadFile(filepath.Join("examples", "dag", "cv_classic.json"))
	if err != nil {
		return fmt.Errorf("read example spec (run from the repo root): %v", err)
	}
	campaignSpec, err := os.ReadFile(filepath.Join("examples", "dag", "campaign_round.json"))
	if err != nil {
		return err
	}
	clf, err := dag.ClassifierForSeed(dag.DefaultClassifierSeed)
	if err != nil {
		return err
	}

	// Drill 1a: a cv job (the compiled cv_classic graph) on lab A.
	labA, schedA, err := smokeLab(filepath.Join(dir, "a"))
	if err != nil {
		return err
	}
	defer labA.Close()
	schedA.s.SetRunner(&sched.LabRunner{
		Connector:  schedA.connector,
		Leases:     schedA.s.Leases(),
		Dir:        schedA.s.Dir(),
		Classifier: clf,
	})
	if err := schedA.s.Start(); err != nil {
		return err
	}
	defer schedA.s.Stop()
	classicJob, err := smokeRun(schedA.s, sched.JobSpec{Tenant: "acl", Kind: sched.KindCV})
	if err != nil {
		return fmt.Errorf("cv job: %v", err)
	}
	var classic sched.CVResult
	if err := json.Unmarshal(classicJob.Result, &classic); err != nil {
		return err
	}
	if classic.SHA256 != pinnedSHA256 {
		return fmt.Errorf("cv job measured sha %.12s, pinned %.12s", classic.SHA256, pinnedSHA256)
	}
	log.Printf("dag-smoke: cv job measured %s sha %.12s (pinned) verdict %q",
		classic.File, classic.SHA256, classic.ClassName)

	// Drill 1b: the same experiment as a declarative DAG on fresh lab B.
	labB, schedB, err := smokeLab(filepath.Join(dir, "b"))
	if err != nil {
		return err
	}
	defer labB.Close()
	schedB.s.SetRunner(&sched.LabRunner{
		Connector:  schedB.connector,
		Leases:     schedB.s.Leases(),
		Dir:        schedB.s.Dir(),
		Classifier: clf,
		Metrics:    schedB.s.Metrics(),
	})
	if err := schedB.s.Start(); err != nil {
		return err
	}
	defer schedB.s.Stop()
	dagSpec := sched.JobSpec{Tenant: "acl", Kind: sched.KindDAG, DAG: classicSpec}
	dagJob, err := smokeRun(schedB.s, dagSpec)
	if err != nil {
		return fmt.Errorf("dag job: %v", err)
	}
	res, err := decodeDAGResult(dagJob.Result)
	if err != nil {
		return err
	}
	if got := res["d_retrieve"].Digest; got != classic.SHA256 {
		return fmt.Errorf("digest equivalence FAILED: dag %.12s vs cv job %.12s", got, classic.SHA256)
	}
	if got := res["d_analyze"].Points; got != classic.Points {
		return fmt.Errorf("points diverged: dag %d vs cv job %d", got, classic.Points)
	}
	if got := res["d_classify"].ClassName; got != classic.ClassName {
		return fmt.Errorf("verdict diverged: dag %q vs cv job %q", got, classic.ClassName)
	}
	log.Printf("dag-smoke: DAG job digest-identical to the cv job (%.12s…) with matching verdict %q",
		classic.SHA256, classic.ClassName)

	// Drill 2: resubmit the identical spec — cacheable nodes hit, the
	// instrument stays untouched.
	rerunJob, err := smokeRun(schedB.s, dagSpec)
	if err != nil {
		return fmt.Errorf("cached re-run: %v", err)
	}
	var rerun dag.Result
	if err := json.Unmarshal(rerunJob.Result, &rerun); err != nil {
		return err
	}
	if rerun.NodesCached < 4 {
		return fmt.Errorf("re-run served %d nodes from cache, want >= 4", rerun.NodesCached)
	}
	counts, err := smokeAudit(labB.dir)
	if err != nil {
		return err
	}
	if counts["StartChannelSP200"] != 1 {
		return fmt.Errorf("cached re-run touched the instrument: %d acquisitions (want 1)", counts["StartChannelSP200"])
	}
	if counts["DispenseSyringePump"] != 2 {
		return fmt.Errorf("fill ran %d times across two submissions, want 2 (never cached)", counts["DispenseSyringePump"])
	}
	log.Printf("dag-smoke: re-run served %d/%d nodes from cache, acquisition count still 1",
		rerun.NodesCached, len(rerun.Nodes))

	// Drill 3: kill -9 mid-DAG, restart, resume exactly once.
	if err := dagCrashDrill(filepath.Join(dir, "c"), classicSpec); err != nil {
		return fmt.Errorf("crash drill: %v", err)
	}

	// Drill 4: the two-cell campaign round on its own fresh lab (the
	// earlier drills left lab B's cell filled; lab physics would
	// rightly overflow it).
	labD, schedD, err := smokeLab(filepath.Join(dir, "d"))
	if err != nil {
		return err
	}
	defer labD.Close()
	schedD.s.SetRunner(&sched.LabRunner{
		Connector: schedD.connector,
		Leases:    schedD.s.Leases(),
		Dir:       schedD.s.Dir(),
	})
	if err := schedD.s.Start(); err != nil {
		return err
	}
	defer schedD.s.Stop()
	campJob, err := smokeRun(schedD.s, sched.JobSpec{Tenant: "acl", Kind: sched.KindDAG, DAG: campaignSpec})
	if err != nil {
		return fmt.Errorf("campaign round: %v", err)
	}
	camp, err := decodeDAGResult(campJob.Result)
	if err != nil {
		return err
	}
	for _, id := range []string{"c1_analyze", "c2_analyze"} {
		if camp[id].Points == 0 {
			return fmt.Errorf("campaign branch %s produced no analysis", id)
		}
	}
	log.Printf("dag-smoke: campaign round analyzed both cells (peaks %.2f / %.2f µA)",
		camp["c1_analyze"].AnodicPeakUA, camp["c2_analyze"].AnodicPeakUA)

	// Drill 5: nothing leaked.
	for _, s := range []*sched.Scheduler{schedA.s, schedB.s, schedD.s} {
		if active := s.Leases().Active(); len(active) != 0 {
			return fmt.Errorf("leaked leases: %+v", active)
		}
	}
	schedA.s.Stop()
	schedB.s.Stop()
	schedD.s.Stop()
	labA.Close()
	labB.Close()
	labD.Close()
	if err := testutil.WaitGoroutines(baseline, 8, 5*time.Second); err != nil {
		return err
	}
	log.Printf("dag-smoke: goroutines settled (baseline %d)", baseline)
	return nil
}

// dagCrashDrill kills the daemon the moment d_retrieve checkpoints,
// restarts over the same state directory, and verifies exactly-once
// completion with the finished nodes restored from journal + cache.
func dagCrashDrill(dir string, spec json.RawMessage) error {
	lab, env, err := smokeLab(dir)
	if err != nil {
		return err
	}
	defer lab.Close()

	killed := make(chan struct{})
	var crashOnce sync.Once
	lab1 := &sched.LabRunner{Connector: env.connector, Leases: env.s.Leases(), Dir: env.s.Dir()}
	grab := &grabRunner{inner: lab1, ctxs: make(map[string]context.Context)}
	lab1.OnTask = func(jobID string, rec workflow.TaskRecord) {
		if rec.TaskID != "d_retrieve" || rec.Status != "OK" {
			return
		}
		crashOnce.Do(func() {
			// Kill waits for the worker goroutine this callback runs in, so
			// it must fire concurrently; holding here until the job context
			// dies models the process vanishing mid-node.
			go func() {
				env.s.Kill()
				close(killed)
			}()
			<-grab.ctx(jobID).Done()
		})
	}
	env.s.SetRunner(grab)
	if err := env.s.Start(); err != nil {
		return err
	}
	job, err := env.s.Submit(sched.JobSpec{Tenant: "acl", Kind: sched.KindDAG, DAG: spec})
	if err != nil {
		return err
	}
	select {
	case <-killed:
		log.Printf("dag-smoke: daemon killed after d_retrieve checkpointed (job %s)", job.ID)
	case <-time.After(60 * time.Second):
		return fmt.Errorf("daemon never died at the crash seam")
	}

	// Incarnation two over the same WAL.
	s2, err := sched.New(sched.Config{Dir: env.s.Dir(), Workers: 1})
	if err != nil {
		return err
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		return fmt.Errorf("crashed job missing after WAL replay")
	}
	if recovered.State != sched.StatePending || !recovered.Resumed {
		return fmt.Errorf("replayed job = %s resumed=%v, want PENDING resumed", recovered.State, recovered.Resumed)
	}
	s2.SetRunner(&sched.LabRunner{Connector: env.connector, Leases: s2.Leases(), Dir: s2.Dir()})
	if err := s2.Start(); err != nil {
		return err
	}
	defer s2.Stop()
	final, err := smokeWait(s2, job.ID)
	if err != nil {
		return err
	}
	if final.Attempts != 2 || !final.Resumed {
		return fmt.Errorf("resumed job attempts=%d resumed=%v, want 2 resumed", final.Attempts, final.Resumed)
	}
	var res dag.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		return err
	}
	if res.NodesRestored == 0 {
		return fmt.Errorf("resume restored no nodes from the checkpoint journal")
	}
	counts, err := smokeAudit(lab.dir)
	if err != nil {
		return err
	}
	for _, method := range []string{"WithdrawSyringePump", "DispenseSyringePump", "StartChannelSP200"} {
		if counts[method] != 1 {
			return fmt.Errorf("exactly-once violated: %s ran %d times", method, counts[method])
		}
	}
	if active := s2.Leases().Active(); len(active) != 0 {
		return fmt.Errorf("leaked leases after recovery: %+v", active)
	}
	log.Printf("dag-smoke: crash-resume DONE on attempt 2, %d nodes restored, audit exactly-once", res.NodesRestored)
	return nil
}

// smokeEnv bundles one scheduler and its lab connector.
type smokeEnv struct {
	s         *sched.Scheduler
	connector *sched.DeploymentConnector
}

// smokeDeployment is a deployment plus its lab directory (where the
// audit journal lives).
type smokeDeployment struct {
	*core.Deployment
	dir string
}

// smokeLab stands up one fresh audited lab and an idle scheduler.
func smokeLab(dir string) (*smokeDeployment, *smokeEnv, error) {
	labDir := filepath.Join(dir, "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		return nil, nil, err
	}
	d, err := core.Deploy(labDir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy simulated lab: %v", err)
	}
	if err := d.Agent.EnableAudit(); err != nil {
		d.Close()
		return nil, nil, err
	}
	s, err := sched.New(sched.Config{Dir: filepath.Join(dir, "state"), Workers: 1})
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return &smokeDeployment{Deployment: d, dir: labDir},
		&smokeEnv{s: s, connector: &sched.DeploymentConnector{D: d, Host: netsim.HostDGX}}, nil
}

func smokeRun(s *sched.Scheduler, spec sched.JobSpec) (sched.Job, error) {
	job, err := s.Submit(spec)
	if err != nil {
		return sched.Job{}, err
	}
	return smokeWait(s, job.ID)
}

func smokeWait(s *sched.Scheduler, id string) (sched.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.WaitTerminal(ctx, id)
	if err != nil {
		return sched.Job{}, err
	}
	if final.State != sched.StateDone {
		return sched.Job{}, fmt.Errorf("job %s = %s: %s", id, final.State, final.Error)
	}
	return final, nil
}

func smokeAudit(labDir string) (map[string]int, error) {
	data, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		return nil, err
	}
	entries, err := core.ParseAuditJournal(data)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for _, e := range entries {
		counts[e.Method]++
	}
	return counts, nil
}

func decodeDAGResult(raw json.RawMessage) (map[string]dag.NodeResult, error) {
	var res dag.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	nodes := make(map[string]dag.NodeResult, len(res.Nodes))
	for _, n := range res.Nodes {
		nodes[n.Node] = n
	}
	return nodes, nil
}
