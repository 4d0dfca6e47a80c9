package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/sched"
	"ice/internal/sched/cluster"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// assignments is a repeatable "name=value" flag (-peer facb=http://b:9700).
type assignments map[string]string

func (a assignments) String() string {
	var parts []string
	for k, v := range a {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (a assignments) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" || val == "" {
		return fmt.Errorf("want facility=value, got %q", s)
	}
	a[name] = val
	return nil
}

// clusterPeers assembles the peer table from the -peer / -peer-lab
// flags. A peer without a -peer-lab probe address never triggers a
// failover from this node (the fencing probe always fails): silence
// is then always treated as a partition, the safe default.
func clusterPeers(peers, labs assignments) ([]cluster.Peer, error) {
	var out []cluster.Peer
	for fac, url := range peers {
		out = append(out, cluster.Peer{Facility: fac, URL: url, LabAddr: labs[fac]})
	}
	for fac := range labs {
		if _, ok := peers[fac]; !ok {
			return nil, fmt.Errorf("-peer-lab %s without a matching -peer", fac)
		}
	}
	return out, nil
}

// serveCluster runs the federated gateway: the local scheduler wrapped
// in a cluster node that heartbeats its peers, replicates the WAL and
// checkpoint journals, and adopts a dead peer's jobs after fencing.
func serveCluster(listen string, node *cluster.Node) {
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: node}
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	st := node.Ready()
	log.Printf("icegated: facility %s (%s, term %d) listening on http://%s, %d peer(s)",
		node.Facility(), st.Role, st.Term, l.Addr(), len(st.Peers))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Print("icegated: shutting down (queued jobs stay PENDING in the replicated WAL)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	node.Stop()
}

// smokeGrabRunner captures each job's context so the crash seam can
// wait for the kill to land before releasing the workflow engine.
type smokeGrabRunner struct {
	inner sched.Runner
	mu    sync.Mutex
	ctxs  map[string]context.Context
}

func (r *smokeGrabRunner) Run(ctx context.Context, job sched.Job, emit func(string, string)) (json.RawMessage, error) {
	r.mu.Lock()
	r.ctxs[job.ID] = ctx
	r.mu.Unlock()
	return r.inner.Run(ctx, job, emit)
}

func (r *smokeGrabRunner) ctx(id string) context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctxs[id]
}

// runClusterSmoke is the make cluster-smoke acceptance drill: two
// in-process facility gateways over real TCP share one simulated lab;
// a CV job submitted to facility A is cut down mid-run by killing A's
// gateway (kill -9 semantics), and facility B must adopt it from the
// replicated WAL within 10 seconds and finish it exactly once. State
// and the exported trace JSONL land under dir for CI artifacts.
func runClusterSmoke(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	labDir := filepath.Join(dir, "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		return err
	}
	dep, err := core.Deploy(labDir, 0)
	if err != nil {
		return fmt.Errorf("deploy simulated lab: %w", err)
	}
	defer dep.Close()
	if err := dep.Agent.EnableAudit(); err != nil {
		return err
	}
	connector := &sched.DeploymentConnector{D: dep, Host: netsim.HostDGX}

	exporter, err := trace.NewJSONLExporter(filepath.Join(dir, "cluster_smoke_trace.jsonl"), 200*time.Millisecond)
	if err != nil {
		return err
	}
	defer exporter.Close()
	tracer := trace.New(
		trace.WithStore(trace.NewStore(0, 0)),
		trace.WithExporter(exporter),
	)

	lisA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	urlA := "http://" + lisA.Addr().String()
	urlB := "http://" + lisB.Addr().String()
	// Both nodes live in this process next to the lab: the fencing
	// probe trivially passes, which is the point — the drill exercises
	// the crashed-gateway path, not the partition path.
	labAlive := func(ctx context.Context) error { return nil }

	killed := make(chan struct{})
	var crashOnce sync.Once
	var srvA *http.Server
	var nodeA *cluster.Node
	nodeA, err = cluster.NewNode(cluster.Config{
		Facility: "faca",
		Peers:    []cluster.Peer{{Facility: "facb", URL: urlB, Probe: labAlive}},
		Sched:    sched.Config{Dir: filepath.Join(dir, "state-a"), Workers: 1, Tracer: tracer},
		NewRunner: func(n *cluster.Node, fac string) sched.Runner {
			lr := &sched.LabRunner{
				Connector:     connector,
				Leases:        n.Scheduler().Leases(),
				Dir:           n.Scheduler().Dir(),
				Resources:     cluster.FacilityResources(fac),
				MirrorJournal: n.MirrorJournal,
			}
			grab := &smokeGrabRunner{inner: lr, ctxs: make(map[string]context.Context)}
			lr.OnTask = func(jobID string, rec workflow.TaskRecord) {
				if rec.TaskID != "c_fill" || rec.Status != "OK" {
					return
				}
				crashOnce.Do(func() {
					log.Printf("cluster-smoke: killing facility A's gateway after the c_fill checkpoint of %s", jobID)
					go func() {
						srvA.Close()
						nodeA.Kill()
						close(killed)
					}()
					<-grab.ctx(jobID).Done()
				})
			}
			return grab
		},
		HeartbeatEvery: 100 * time.Millisecond,
		FailoverAfter:  500 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	nodeB, err := cluster.NewNode(cluster.Config{
		Facility: "facb",
		Peers:    []cluster.Peer{{Facility: "faca", URL: urlA, Probe: labAlive}},
		Sched:    sched.Config{Dir: filepath.Join(dir, "state-b"), Workers: 1, Tracer: tracer},
		NewRunner: func(n *cluster.Node, fac string) sched.Runner {
			return &sched.LabRunner{
				Connector:     connector,
				Leases:        n.Scheduler().Leases(),
				Dir:           n.Scheduler().Dir(),
				Resources:     cluster.FacilityResources(fac),
				MirrorJournal: n.MirrorJournal,
			}
		},
		HeartbeatEvery: 100 * time.Millisecond,
		FailoverAfter:  500 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	srvA = &http.Server{Handler: nodeA}
	srvB := &http.Server{Handler: nodeB}
	go srvA.Serve(lisA)
	go srvB.Serve(lisB)
	defer srvB.Close()
	if err := nodeB.Start(); err != nil {
		return err
	}
	defer nodeB.Stop()
	if err := nodeA.Start(); err != nil {
		return err
	}
	log.Printf("cluster-smoke: faca on %s, facb on %s", urlA, urlB)

	// Wait for the heartbeat mesh so replication is synchronous before
	// the job is admitted.
	deadline := time.Now().Add(10 * time.Second)
	for !(nodeA.Ready().Peers["facb"] && nodeB.Ready().Peers["faca"]) {
		if time.Now().After(deadline) {
			return fmt.Errorf("peers never saw each other")
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Post(urlA+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant":"acl","kind":"cv","points":400}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var job sched.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return err
	}
	log.Printf("cluster-smoke: submitted %s to faca", job.ID)

	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("facility A's gateway never died at the crash seam")
	}
	killedAt := time.Now()

	// Failover must land within 10s: B notices the silence, fences,
	// and adopts the replicated job.
	for {
		if _, known := nodeB.Scheduler().Job(job.ID); known {
			break
		}
		if time.Since(killedAt) > 10*time.Second {
			return fmt.Errorf("facility B did not adopt %s within 10s of the kill", job.ID)
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("cluster-smoke: facb adopted %s %s after the kill", job.ID, time.Since(killedAt).Round(time.Millisecond))

	waitDeadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(urlB + "/v1/jobs/" + job.ID)
		if err != nil {
			return err
		}
		var cur sched.Job
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if cur.State.Terminal() {
			if cur.State != sched.StateDone || cur.Attempts != 2 || !cur.Resumed {
				return fmt.Errorf("adopted job ended %s attempts=%d resumed=%v (%s), want DONE/2/resumed",
					cur.State, cur.Attempts, cur.Resumed, cur.Error)
			}
			break
		}
		if time.Now().After(waitDeadline) {
			return fmt.Errorf("adopted job %s did not finish in time", job.ID)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Exactly-once: each liquid-moving command appears once in the
	// lab's audit journal despite the mid-run kill.
	auditData, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		return err
	}
	entries, err := core.ParseAuditJournal(auditData)
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	for _, e := range entries {
		counts[e.Method]++
	}
	for _, method := range []string{"WithdrawSyringePump", "DispenseSyringePump", "StartChannelSP200"} {
		if counts[method] != 1 {
			return fmt.Errorf("audit journal shows %s ×%d, want exactly once", method, counts[method])
		}
	}

	// The survivor's health endpoints reflect the takeover.
	resp, err = http.Get(urlB + "/v1/readyz")
	if err != nil {
		return err
	}
	var ready sched.ReadyStatus
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Role != "leader" {
		return fmt.Errorf("survivor readiness = HTTP %d %+v, want ready leader", resp.StatusCode, ready)
	}
	log.Printf("cluster-smoke: %s DONE exactly once on facb (attempt 2, audit clean)", job.ID)
	return nil
}
