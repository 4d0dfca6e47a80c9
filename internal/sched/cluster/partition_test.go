package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/sched"
	"ice/internal/trace"
)

// TestClusterPartitionDegradesAndHeals cuts the WAN between the two
// facilities and asserts the degraded contract: local jobs keep
// running on both sides, cross-facility submissions get 503 +
// Retry-After, neither side adopts the other (no split-brain lease
// grant — the fencing probe fails across the cut too), and
// cluster.partition is recorded. On heal the replication backlogs
// flush to convergence, cross-facility routing works again, and
// cluster.heal is recorded.
func TestClusterPartitionDegradesAndHeals(t *testing.T) {
	base := t.TempDir()
	nw := newFabric(t)
	labProbeTarget(t, nw, hostLabA)
	labProbeTarget(t, nw, hostLabB)

	// Each facility drives its own lab deployment here — unlike the
	// failover drill, nobody may touch the other side's instruments.
	deploy := func(name string) *core.Deployment {
		dir := filepath.Join(base, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		dep, err := core.Deploy(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dep.Close() })
		return dep
	}
	depA := deploy("lab-a")
	depB := deploy("lab-b")

	tracer := trace.New(trace.WithStore(trace.NewStore(0, 0)))

	newNode := func(fac, dir, host string, dep *core.Deployment, peer Peer) *Node {
		node, err := NewNode(Config{
			Facility: fac,
			Peers:    []Peer{peer},
			Sched:    sched.Config{Dir: filepath.Join(base, dir), Workers: 1, Tracer: tracer},
			NewRunner: func(n *Node, facility string) sched.Runner {
				return &sched.LabRunner{
					Connector:     &sched.DeploymentConnector{D: dep, Host: netsim.HostDGX},
					Leases:        n.Scheduler().Leases(),
					Dir:           n.Scheduler().Dir(),
					Resources:     FacilityResources(facility),
					MirrorJournal: n.MirrorJournal,
				}
			},
			Transport:      nsTransport(nw, host),
			HeartbeatEvery: 50 * time.Millisecond,
			FailoverAfter:  250 * time.Millisecond,
			RetryAfter:     2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	nodeA := newNode("faca", "state-a", hostGwA, depA,
		Peer{Facility: "facb", URL: urlGwB, Probe: probeVia(nw, hostGwA, hostLabB)})
	nodeB := newNode("facb", "state-b", hostGwB, depB,
		Peer{Facility: "faca", URL: urlGwA, Probe: probeVia(nw, hostGwB, hostLabA)})

	serveNode(t, nw, hostGwA, nodeA)
	serveNode(t, nw, hostGwB, nodeB)
	if err := nodeA.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nodeA.Stop)
	if err := nodeB.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nodeB.Stop)

	awaitTrue(t, 5*time.Second, "peers see each other", func() bool {
		return nodeA.Ready().Peers["facb"] && nodeB.Ready().Peers["faca"]
	})

	clientA := nsClient(nw, hostUserA)
	clientB := nsClient(nw, hostUserB)

	// Sanity before the cut: cross-facility submission from A routes
	// to B and completes; the origin proxies status for it.
	crossBefore := submitJob(t, clientA, urlGwA, sched.JobSpec{
		Tenant: "acl", Kind: sched.KindCV, Points: 100, Facility: "facb",
	})
	if facilityOfJob(crossBefore.ID) != "facb" {
		t.Fatalf("cross-facility job admitted as %q, want facb prefix", crossBefore.ID)
	}
	done := awaitJobDone(t, clientA, urlGwA, crossBefore.ID, 60*time.Second)
	if done.State != sched.StateDone {
		t.Fatalf("pre-partition cross job = %s (%s)", done.State, done.Error)
	}

	// ---- Partition the WAN. ----
	if err := nw.Partition("wan"); err != nil {
		t.Fatal(err)
	}

	// Both sides must classify the silence as a partition (fencing
	// probe fails across the same cut), not a failover.
	awaitTrue(t, 5*time.Second, "both sides mark cluster.partition", func() bool {
		return nodeA.Scheduler().Metrics().CounterValue("cluster.partitions") >= 1 &&
			nodeB.Scheduler().Metrics().CounterValue("cluster.partitions") >= 1
	})

	// Degraded mode: local submissions on each side still run to DONE.
	localA := submitJob(t, clientA, urlGwA, sched.JobSpec{Tenant: "acl", Kind: sched.KindCV, Points: 100})
	localB := submitJob(t, clientB, urlGwB, sched.JobSpec{Tenant: "mit", Kind: sched.KindCV, Points: 100})
	if got := awaitJobDone(t, clientA, urlGwA, localA.ID, 60*time.Second); got.State != sched.StateDone {
		t.Fatalf("local job on A during partition = %s (%s)", got.State, got.Error)
	}
	if got := awaitJobDone(t, clientB, urlGwB, localB.ID, 60*time.Second); got.State != sched.StateDone {
		t.Fatalf("local job on B during partition = %s (%s)", got.State, got.Error)
	}

	// Cross-facility submission degrades to 503 + Retry-After.
	_, status, err := trySubmit(clientA, urlGwA, sched.JobSpec{
		Tenant: "acl", Kind: sched.KindCV, Points: 100, Facility: "facb",
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("cross-facility submit during partition = HTTP %d, want 503", status)
	}
	resp, err := clientA.Post(urlGwA+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant":"acl","kind":"cv","points":100,"facility":"facb"}`))
	if err != nil {
		t.Fatal(err)
	}
	retryAfter := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if secs, convErr := strconv.Atoi(retryAfter); convErr != nil || secs < 1 {
		t.Fatalf("503 Retry-After = %q, want a positive integer", retryAfter)
	}

	// No split-brain: neither side claims the other's facility, so no
	// foreign instrument lease can exist on either side of the cut.
	if _, leads := nodeB.state().Leading["faca"]; leads {
		t.Fatal("node B claimed faca leadership during partition")
	}
	if _, leads := nodeA.state().Leading["facb"]; leads {
		t.Fatal("node A claimed facb leadership during partition")
	}
	for _, job := range nodeB.Scheduler().Jobs() {
		if facilityOfJob(job.ID) == "faca" {
			t.Fatalf("node B runs foreign job %s during partition", job.ID)
		}
	}

	// Readiness reflects the degraded-but-leading state: still ready
	// (we lead our own facility), peer marked unreachable.
	st := nodeA.Ready()
	if !st.Ready || st.Role != "leader" || st.Peers["facb"] {
		t.Fatalf("node A readiness during partition = %+v", st)
	}

	// ---- Heal. ----
	if err := nw.Heal("wan"); err != nil {
		t.Fatal(err)
	}

	// Replication backlogs (the partition-era local jobs' records)
	// flush until every peer acknowledged everything.
	awaitTrue(t, 10*time.Second, "replication converges after heal", func() bool {
		return nodeA.rep.lag() == 0 && nodeB.rep.lag() == 0 &&
			nodeA.Scheduler().Metrics().CounterValue("cluster.heals") >= 1 &&
			nodeB.Scheduler().Metrics().CounterValue("cluster.heals") >= 1
	})

	// The replicas converge deterministically: B's copy of A's stream
	// reaches A's high-water mark (and vice versa), and folding it
	// yields the partition-era job as DONE exactly once.
	items, err := nodeB.store.Read("faca")
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := foldStream(items)
	jobs := sched.FoldWALRecords(recs)
	var sawLocalA bool
	for _, j := range jobs {
		if j.ID == localA.ID {
			sawLocalA = true
			if j.State != sched.StateDone {
				t.Fatalf("replicated fold of %s = %s, want DONE", j.ID, j.State)
			}
		}
	}
	if !sawLocalA {
		t.Fatalf("partition-era job %s missing from healed replica", localA.ID)
	}

	// Cross-facility routing works again end to end.
	crossAfter := submitJob(t, clientA, urlGwA, sched.JobSpec{
		Tenant: "acl", Kind: sched.KindCV, Points: 100, Facility: "facb",
	})
	if got := awaitJobDone(t, clientA, urlGwA, crossAfter.ID, 60*time.Second); got.State != sched.StateDone {
		t.Fatalf("post-heal cross job = %s (%s)", got.State, got.Error)
	}

	// The cluster spans carry the partition and heal events.
	nodeA.Stop()
	nodeB.Stop()
	var sawPartition, sawHeal bool
	for _, traceID := range []string{nodeA.span.TraceID(), nodeB.span.TraceID()} {
		for _, rec := range tracer.Store().Trace(traceID) {
			for _, ev := range rec.Events {
				switch ev.Name {
				case "cluster.partition":
					sawPartition = true
				case "cluster.heal":
					sawHeal = true
				}
			}
		}
	}
	if !sawPartition || !sawHeal {
		t.Fatalf("cluster spans: partition event %v, heal event %v, want both", sawPartition, sawHeal)
	}
}

// peerWAN carries the node's peer traffic to facb's gateway: down
// until heal, then answering heartbeats as a live facb would.
type peerWAN struct{ up atomic.Bool }

func (w *peerWAN) RoundTrip(req *http.Request) (*http.Response, error) {
	if !w.up.Load() {
		return nil, errors.New("wan down")
	}
	rec := httptest.NewRecorder()
	if req.URL.Path == "/v1/cluster/heartbeat" {
		writeJSON(rec, http.StatusOK, facbState)
	} else {
		writeError(rec, http.StatusNotFound, "not served by this fake")
	}
	return rec.Result(), nil
}

var facbState = stateMsg{Facility: "facb", Term: 1, Leading: map[string]uint64{"facb": 1}}

// TestSilentPeerBackDuringProbeIsNotAdopted pins the heal-during-probe
// race behind TestClusterPartitionDegradesAndHeals' rare timeout: the
// monitor finds the peer silent and probes its lab, and while the
// probe runs the peer comes back — its heartbeat lands here, or the
// WAN heals so its gateway answers again. The lab probe passes either
// way, but the peer's gateway is live, so the node must neither adopt
// its facility nor mark it partitioned.
func TestSilentPeerBackDuringProbeIsNotAdopted(t *testing.T) {
	for _, tc := range []struct {
		name string
		// inbound delivers facb's heartbeat to the node mid-probe;
		// otherwise the probe heals the WAN and nothing arrives.
		inbound bool
	}{
		{"heartbeat lands mid-probe", true},
		{"wan heals mid-probe", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wan := &peerWAN{}
			var node *Node
			probe := func(ctx context.Context) error {
				if !tc.inbound {
					wan.up.Store(true)
					return nil // the lab answers: the fencing probe passes
				}
				body, err := json.Marshal(facbState)
				if err != nil {
					return err
				}
				rec := httptest.NewRecorder()
				node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/heartbeat", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("heartbeat: HTTP %d: %s", rec.Code, rec.Body)
				}
				return nil
			}
			node, err := NewNode(Config{
				Facility: "faca",
				Peers:    []Peer{{Facility: "facb", URL: "http://icegated-b:9700", Probe: probe}},
				Sched:    sched.Config{Dir: t.TempDir(), Workers: 1},
				NewRunner: func(n *Node, fac string) sched.Runner {
					return &sched.LabRunner{Leases: n.Scheduler().Leases(), Dir: n.Scheduler().Dir()}
				},
				Transport: wan,
				// The test drives the monitor by hand: no tick of its own,
				// and any silence at all is past the failover threshold.
				HeartbeatEvery: time.Hour,
				FailoverAfter:  time.Nanosecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()

			node.tick() // heartbeat to facb fails → silent → probe → facb is back

			m := node.Scheduler().Metrics()
			if got := m.CounterValue("cluster.failovers"); got != 0 {
				t.Errorf("cluster.failovers = %d after the peer came back mid-probe, want 0", got)
			}
			if got := m.CounterValue("cluster.partitions"); got != 0 {
				t.Errorf("cluster.partitions = %d after the peer came back mid-probe, want 0", got)
			}
			if term, leads := node.state().Leading["facb"]; leads {
				t.Errorf("node leads facb at term %d: adopted a live peer's facility", term)
			}
			if !node.Ready().Peers["facb"] {
				t.Errorf("facb not reachable after it came back: %+v", node.Ready())
			}
		})
	}
}
