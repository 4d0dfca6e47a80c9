package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/pyro"
	"ice/internal/telemetry"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// Connector opens cross-facility handles for one job. The gateway
// daemon uses a TCP connector towards a real control agent; tests and
// icegated -selflab use a Deployment connector over netsim.
type Connector interface {
	// ConnectSession opens instrument handles (cv jobs).
	ConnectSession() (*core.RemoteSession, datachan.Share, error)
	// ConnectLab opens extended-lab handles (campaign jobs; the agent
	// must be serving the synthesis and robot stations).
	ConnectLab() (*core.LabSession, datachan.Share, error)
}

// DeploymentConnector serves jobs from an in-process netsim
// Deployment — the shape the tests and icegated -selflab use.
type DeploymentConnector struct {
	// D is the deployed ICE.
	D *core.Deployment
	// Host is the remote end of the connections (e.g. netsim.HostDGX).
	Host string
	// NewMount, when set, replaces the default data mount — chaos tests
	// hand out reliable mounts that ride out injected faults.
	NewMount func() (datachan.Share, error)
}

// ConnectSession implements Connector.
func (c *DeploymentConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	session, mount, err := c.D.ConnectFrom(c.Host)
	if err != nil {
		return nil, nil, err
	}
	share, err := c.replaceMount(mount)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, share, nil
}

// ConnectLab implements Connector.
func (c *DeploymentConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	session, mount, err := c.D.ConnectLabFrom(c.Host)
	if err != nil {
		return nil, nil, err
	}
	share, err := c.replaceMount(mount)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, share, nil
}

func (c *DeploymentConnector) replaceMount(mount *datachan.Mount) (datachan.Share, error) {
	if c.NewMount == nil {
		return mount, nil
	}
	mount.Close()
	return c.NewMount()
}

// NetConnector reaches a control agent over real TCP — the daemon's
// production path (cmd/icegated -agent).
type NetConnector struct {
	// Agent is the control agent's host.
	Agent string
	// ControlPort and DataPort are the paper's channel ports.
	ControlPort, DataPort int
	// Token is the control-channel credential.
	Token string
	// Reliable retries control commands with exactly-once semantics.
	Reliable bool
	// ReliableData self-heals the data mount across redials.
	ReliableData bool
	// WireVersion caps the control-channel framing: 0 negotiates the
	// newest (binary v2, falling back against old agents), 1 pins the
	// legacy JSON framing.
	WireVersion int
}

func (c *NetConnector) uri() pyro.URI {
	return pyro.URI{Object: core.JKemObject, Host: c.Agent, Port: c.ControlPort}
}

func (c *NetConnector) dataAddr() string {
	return fmt.Sprintf("%s:%d", c.Agent, c.DataPort)
}

func (c *NetConnector) mount() (datachan.Share, error) {
	if c.ReliableData {
		addr := c.dataAddr()
		return datachan.NewReliableMount(func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		}), nil
	}
	conn, err := net.Dial("tcp", c.dataAddr())
	if err != nil {
		return nil, err
	}
	return datachan.NewMount(conn), nil
}

// ConnectSession implements Connector.
func (c *NetConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	opts := core.SessionOptions{Token: c.Token, WireVersion: c.WireVersion}
	var session *core.RemoteSession
	if c.Reliable {
		session = core.ConnectSessionReliable(c.uri(), nil, opts)
	} else {
		var err error
		session, err = core.ConnectSessionOpts(c.uri(), nil, opts)
		if err != nil {
			return nil, nil, err
		}
	}
	mount, err := c.mount()
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// ConnectLab implements Connector.
func (c *NetConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	session, err := core.ConnectLabSessionToken(c.uri(), nil, c.Token)
	if err != nil {
		return nil, nil, err
	}
	mount, err := c.mount()
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// CVResult is a cv job's JSON result: the digest-verified measurement
// and its analysis.
type CVResult struct {
	File         string  `json:"file"`
	SHA256       string  `json:"sha256"`
	Points       int     `json:"points"`
	AnodicPeakUA float64 `json:"anodic_peak_ua"`
	// ClassName is the ML normality verdict when the runner carries a
	// classifier ("" otherwise).
	ClassName string `json:"class_name,omitempty"`
}

// RoundResult is one completed campaign round.
type RoundResult struct {
	Round           int     `json:"round"`
	ConcentrationMM float64 `json:"concentration_mm"`
	AchievedMM      float64 `json:"achieved_mm,omitempty"`
	ScanRateMVs     float64 `json:"scan_rate_mvs"`
	PeakUA          float64 `json:"peak_ua"`
}

// CellResult is one campaign cell's outcome.
type CellResult struct {
	Name   string        `json:"name"`
	Rounds []RoundResult `json:"rounds"`
	Error  string        `json:"error,omitempty"`
}

// CampaignResult is a campaign job's JSON result.
type CampaignResult struct {
	Cells []CellResult `json:"cells"`
}

// LabRunner executes admitted jobs against the lab: cv jobs (the
// paper's tasks A–E, compiled to a graph) and dag jobs through the DAG
// engine, crash-recoverable via per-node checkpoints; campaign jobs
// through campaign.Fleet; scan jobs on the scan instrument. Instrument
// access is guarded by lease-backed gates that release once the
// instruments are done, so one tenant's WAN retrieval and analysis
// overlap the next tenant's instrument time.
type LabRunner struct {
	// Connector opens per-job handles.
	Connector Connector
	// Leases is the gateway's lease manager.
	Leases *Leases
	// Dir holds per-job workflow checkpoint journals ("<job>.journal").
	Dir string
	// CampaignCVPoints is the per-round acquisition size for campaign
	// cells (default 300).
	CampaignCVPoints int
	// WaitPoll and WaitTimeout bound measurement retrieval.
	WaitPoll    time.Duration
	WaitTimeout time.Duration
	// AcquireBudget bounds every acquire node's instrument hold (reset
	// through the on-instrument wait). When zero and the job carries an
	// end-to-end deadline, a budget is derived from the remaining
	// deadline, so a wedged potentiostat surfaces as a phase timeout in
	// seconds rather than riding out the lease TTL.
	AcquireBudget time.Duration
	// OnTask, when set, observes every workflow checkpoint record as it
	// is journaled, synchronously — crash drills use it to cut the
	// daemon down at an exact task boundary.
	OnTask func(jobID string, rec workflow.TaskRecord)
	// Resources overrides the instrument lease names the runner's gates
	// contend on (default: the shared sp200/jkem pair). A cluster node
	// scopes them per facility ("facA/sp200/ch1") so adopted foreign
	// jobs never collide with local ones in the lease table.
	Resources []string
	// ScanResources is the scan-job analogue of Resources (default:
	// the stem/scan1 lease). Scan jobs never contend on the echem
	// pair, so the two workloads interleave on one scheduler.
	ScanResources []string
	// MirrorJournal, when set, replicates each workflow checkpoint line
	// to the cluster's peer(s) synchronously — the workflow engine does
	// not proceed past a task boundary until the checkpoint is
	// acknowledged remotely, which is what makes exactly-once resume
	// after failover possible.
	MirrorJournal func(jobID string, line []byte) error
	// Metrics receives the runner's dag.* counters when set.
	Metrics *telemetry.Collector
	// Classifier, when set, classifies cv measurements (the verdict
	// lands in CVResult.ClassName) and overrides seed-derived training
	// for DAG ml-classify nodes.
	Classifier *ml.Ensemble
	// DAGWorkers bounds a dag job's concurrent node execution
	// (default 4).
	DAGWorkers int
	// CacheMaxBytes caps the DAG blob cache's object store; least-
	// recently-used blobs are evicted past the cap (0 = unbounded).
	CacheMaxBytes int64
}

// ErrUnknownJobKind marks a job whose kind no runner path handles.
// The scheduler classifies it as a workload fault: the job fails
// terminally and is never requeued — retrying cannot make a kind
// learn to exist.
var ErrUnknownJobKind = errors.New("sched: no runner for job kind")

// Run implements Runner.
func (r *LabRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	switch job.Spec.Kind {
	case KindCV:
		return r.runCV(ctx, job, emit)
	case KindCampaign:
		return r.runCampaign(ctx, job, emit)
	case KindDAG:
		return r.runDAG(ctx, job, emit)
	case KindScan:
		return r.runScan(ctx, job, emit)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownJobKind, job.Spec.Kind)
	}
}

// journalPath names the job's workflow checkpoint journal.
func (r *LabRunner) journalPath(jobID string) string {
	return filepath.Join(r.Dir, jobID+".journal")
}

// journalTee forwards every checkpoint line to the underlying journal
// file and mirrors it into the job's event stream (and the OnTask
// crash seam), synchronously with the workflow engine.
type journalTee struct {
	file   *core.AppendFile
	jobID  string
	emit   func(string, string)
	onTask func(string, workflow.TaskRecord)
	mirror func(string, []byte) error
}

func (t *journalTee) Write(p []byte) (int, error) {
	n, err := t.file.Write(p)
	if err != nil {
		return n, err
	}
	if t.mirror != nil {
		if err := t.mirror(t.jobID, p); err != nil {
			return n, fmt.Errorf("mirror journal: %w", err)
		}
	}
	var rec workflow.TaskRecord
	if jsonErr := json.Unmarshal(p, &rec); jsonErr == nil && rec.TaskID != "" {
		if t.emit != nil {
			t.emit("workflow", fmt.Sprintf("task %s %s", rec.TaskID, rec.Status))
		}
		if t.onTask != nil {
			t.onTask(t.jobID, rec)
		}
	}
	return n, nil
}

// runCV runs the paper's tasks A–E for one tenant as the compiled
// cv_classic graph, through the same engine path as dag jobs, and
// projects the node results onto the job's CVResult.
func (r *LabRunner) runCV(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	res, err := r.runGraph(ctx, job, compileCV(job.Spec, r.Classifier != nil), emit)
	if err != nil {
		return nil, err
	}
	var out CVResult
	for _, n := range res.Nodes {
		switch n.Node {
		case "d_retrieve":
			out.File, out.SHA256 = n.File, n.Digest
		case "d_analyze":
			out.Points, out.AnodicPeakUA = n.Points, n.AnodicPeakUA
		case "d_classify":
			out.ClassName = n.ClassName
		}
	}
	return json.Marshal(out)
}

// compileCV compiles a cv job into the graph examples/dag/cv_classic.json
// declares, with the job's points and scan-rate overrides on the
// acquire node; fill, system and classifier-seed parameters are left
// zero for the engine to resolve to the paper's defaults. Every node is
// nocache, because a cv job always measures afresh, and the
// ml-classify node is included only when classify is set.
func compileCV(spec JobSpec, classify bool) *dag.Spec {
	cv := core.PaperCVParams()
	if spec.Points > 0 {
		cv.Points = spec.Points
	}
	if spec.ScanRateMVs > 0 {
		cv.RateMVs = spec.ScanRateMVs
	}
	pyro := func(id, object, method string, args []any, needs ...string) *dag.Node {
		return &dag.Node{ID: id, Type: dag.TypePyro, Object: object, Method: method, Args: args, Needs: needs}
	}
	nodes := []*dag.Node{
		pyro("a_jkem", "jkem", "Status", nil),
		pyro("a_sp200", "sp200", "StatusSP200", nil),
		pyro("b_gas", "jkem", "SetGasFlow", []any{1.0, 20.0}, "a_jkem"),
		pyro("b_vial", "jkem", "SetVialFractionCollector", []any{1.0, "BOTTOM"}, "b_gas"),
		pyro("b_temp", "jkem", "ReadTemperature", []any{1.0}, "b_vial"),
		{ID: "c_fill", Type: dag.TypeFill, Fill: &dag.FillSpec{}, Needs: []string{"b_temp"}},
		{ID: "d_acquire", Type: dag.TypeAcquire, Acquire: &dag.AcquireSpec{CV: cv}, Needs: []string{"c_fill", "a_sp200"}},
		{ID: "d_retrieve", Type: dag.TypeRetrieve, Needs: []string{"d_acquire"}},
		{ID: "d_analyze", Type: dag.TypeAnalyze, Needs: []string{"d_retrieve"}},
		pyro("e_exit", "jkem", "ExitJKemAPI", nil, "d_acquire"),
		pyro("e_disconnect", "sp200", "DisconnectSP200", nil, "d_acquire", "e_exit"),
	}
	if classify {
		nodes = append(nodes, &dag.Node{ID: "d_classify", Type: dag.TypeClassify, Needs: []string{"d_retrieve"}})
	}
	for _, n := range nodes {
		n.NoCache = true
	}
	return &dag.Spec{Name: "cv-classic", Nodes: nodes}
}

// runDAG executes a declarative node-graph job.
func (r *LabRunner) runDAG(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	spec, err := dag.DecodeSpec(job.Spec.DAG)
	if err != nil {
		return nil, err
	}
	res, err := r.runGraph(ctx, job, spec, emit)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// runGraph executes one job's graph through the DAG engine: per-node
// checkpoints in the job's journal (replayed when the job resumes after
// a crash), the runner-wide content-keyed cache shared across jobs, and
// the instrument gate held over the instrument nodes.
func (r *LabRunner) runGraph(ctx context.Context, job Job, spec *dag.Spec, emit func(string, string)) (*dag.Result, error) {
	_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
	session, mount, err := r.Connector.ConnectSession()
	connSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	defer session.Close()
	defer mount.Close()
	session.BindTraceContext(ctx)
	// Every RPC honours the job's deadline: a run context that expires
	// (end-to-end budget, quarantine cancel) aborts in-flight calls
	// instead of letting them block until the pyro timeout.
	session.BindCallContext(ctx)
	// The cache lives beside the journals and is shared across jobs:
	// a second job submitting the same spec against unchanged content
	// hits on every cacheable node.
	cache, err := dag.OpenCache(filepath.Join(r.Dir, "dagcache"))
	if err != nil {
		return nil, err
	}
	cache.MaxBlobBytes = r.CacheMaxBytes
	cache.Metrics = r.Metrics

	// Crash recovery: replay the per-node checkpoints the previous
	// daemon incarnation journaled.
	var restored []workflow.TaskRecord
	if job.Resumed || job.Attempts > 1 {
		if data, err := os.ReadFile(r.journalPath(job.ID)); err == nil {
			records, err := workflow.ReadJournal(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("parse journal: %w", err)
			}
			restored = records
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("read journal: %w", err)
		}
	}

	journal, err := core.OpenAppendFile(r.Dir, job.ID+".journal")
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	defer journal.Close()
	tee := &journalTee{file: journal, jobID: job.ID, emit: emit, onTask: r.OnTask, mirror: r.MirrorJournal}

	gate := &InstrumentGate{
		M:         r.Leases,
		Resources: r.gateResources(job),
		Holder:    job.ID,
		TraceCtx:  ctx,
		OnEvent: func(msg string) {
			emit("lease", msg)
		},
	}

	eng := &dag.Engine{
		Spec: spec,
		Exec: measuredExec{emit: emit, Executor: &dag.LabExecutor{
			Session:       session,
			Mount:         mount,
			WaitPoll:      r.WaitPoll,
			WaitTimeout:   r.WaitTimeout,
			Classifier:    r.Classifier,
			AcquireBudget: r.AcquireBudget,
		}},
		Workers:    r.DAGWorkers,
		Journal:    tee,
		Cache:      cache,
		Gate:       gate,
		Metrics:    r.Metrics,
		TraceLabel: job.ID,
		Restored:   restored,
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	if res.NodesRestored > 0 {
		emit("resumed", fmt.Sprintf("%d completed node(s) restored from checkpoint journal", res.NodesRestored))
	}
	if res.NodesCached > 0 {
		emit("cached", fmt.Sprintf("%d node(s) served from content-keyed cache", res.NodesCached))
	}
	return res, nil
}

// measuredExec runs nodes through the wrapped executor and announces
// the acquire→retrieve boundary on the job's event stream as
// "measured <file>", just before the engine may release the gate.
type measuredExec struct {
	dag.Executor
	emit func(string, string)
}

func (x measuredExec) RunNode(ctx context.Context, inv *dag.Invocation) (*dag.NodeResult, []byte, error) {
	if release := inv.OnMeasured; release != nil {
		inv.OnMeasured = func(file string) {
			x.emit("measured", file)
			release(file)
		}
	}
	return x.Executor.RunNode(ctx, inv)
}

// gateResources picks the lease names the job's gates contend on: the
// scheduler's per-job assignment when present (health routing), else
// the runner-wide default.
func (r *LabRunner) gateResources(job Job) []string {
	if len(job.Resources) > 0 {
		return job.Resources
	}
	return r.Resources
}

// runCampaign executes one or more closed-loop campaigns as a fleet
// sharing the lease-backed instrument gate.
func (r *LabRunner) runCampaign(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	points := r.CampaignCVPoints
	if points <= 0 {
		points = 300
	}
	gate := &InstrumentGate{
		M:         r.Leases,
		Resources: r.gateResources(job),
		Holder:    job.ID,
		TraceCtx:  ctx,
		OnEvent: func(msg string) {
			emit("lease", msg)
		},
	}
	fleet := &campaign.Fleet{Gate: gate}
	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()
	if err := func() (err error) {
		_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
		defer func() { connSpan.EndErr(err) }()
		for i, cell := range job.Spec.Cells {
			name := cell.Name
			if name == "" {
				name = fmt.Sprintf("cell-%02d", i+1)
			}
			session, mount, err := r.Connector.ConnectLab()
			if err != nil {
				return fmt.Errorf("connect cell %s: %w", name, err)
			}
			session.BindCallContext(ctx)
			cleanups = append(cleanups, func() { session.Close(); mount.Close() })
			cellName := name
			fleet.Cells = append(fleet.Cells, campaign.FleetCell{
				Name: name,
				Executor: &campaign.Executor{
					Session:  session,
					Mount:    mount,
					CVPoints: points,
					Observe: func(obs campaign.Observation) {
						emit("round", fmt.Sprintf("%s round %d: %.3f mM → %.2f µA",
							cellName, obs.Round, obs.Params.ConcentrationMM, obs.Peak.Microamperes()))
					},
				},
				Planner: plannerFor(cell),
			})
		}
		return nil
	}(); err != nil {
		return nil, err
	}

	results, err := fleet.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := CampaignResult{}
	var failures []error
	for _, res := range results {
		cr := CellResult{Name: res.Name}
		for _, obs := range res.History {
			cr.Rounds = append(cr.Rounds, RoundResult{
				Round:           obs.Round,
				ConcentrationMM: obs.Params.ConcentrationMM,
				AchievedMM:      obs.AchievedMM,
				ScanRateMVs:     obs.Params.ScanRateMVs,
				PeakUA:          obs.Peak.Microamperes(),
			})
		}
		if res.Err != nil {
			cr.Error = res.Err.Error()
			failures = append(failures, fmt.Errorf("cell %s: %w", res.Name, res.Err))
		}
		out.Cells = append(out.Cells, cr)
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return json.Marshal(out)
}

// plannerFor builds the cell's planner from its declarative spec
// (Validate guarantees exactly one of the two shapes).
func plannerFor(cell CellSpec) campaign.Planner {
	if len(cell.Rounds) > 0 {
		rounds := make([]campaign.Params, len(cell.Rounds))
		for i, r := range cell.Rounds {
			rounds[i] = campaign.Params{ConcentrationMM: r.ConcentrationMM, ScanRateMVs: r.ScanRateMVs}
		}
		return campaign.FixedRounds{Label: cell.Name, Rounds: rounds}
	}
	return &campaign.TargetPeakSearch{
		TargetPeakUA: cell.TargetPeakUA,
		MinMM:        cell.MinMM,
		MaxMM:        cell.MaxMM,
	}
}
