package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/sched"
)

// Job kinds as the benchmark reports them. A dag job is a dag whether
// it is a cv_classic graph or a control-plane graph of status reads.
const (
	kindCV       = sched.KindCV
	kindDAG      = sched.KindDAG
	kindCampaign = sched.KindCampaign
	kindScan     = sched.KindScan
)

// plan is one generated job: the spec a tenant submits plus what the
// benchmark needs to know to check its result. The program under test
// sees only Spec.
type plan struct {
	Kind string        `json:"kind"`
	Spec sched.JobSpec `json:"spec"`
	// Fills marks a job that pours liquid into the shared cell; the
	// harness drains the cell after it.
	Fills bool `json:"fills,omitempty"`
	// CV is the acquisition program of a cv job or of a dag job's
	// acquire node (nil for jobs without one).
	CV *core.CVParams `json:"cv,omitempty"`
	// Nodes is a dag job's node count.
	Nodes int `json:"nodes,omitempty"`
}

// workload is one traffic mix: the facility it runs on, how fast the
// simulated instruments move, and what each tenant submits.
type workload struct {
	Name string
	// Lab is the facility config, relative to the repository root.
	Lab string
	// TimeScale paces the simulated instruments (0 = instant).
	TimeScale float64
	// Tenants names the closed-loop clients; len(Tenants) ≤ nproc.
	Tenants []string
	// Mix is each tenant's block of job kinds. A tenant submits its
	// block in a seeded order, then the next, so every kind's share is
	// exact and the latency percentiles stay inside one kind's mode
	// instead of jumping between modes from run to run.
	Mix [][]string
	// build draws tenant t's i-th job, of the given kind, from rng.
	build func(kind string, rng *rand.Rand, t, i int) plan
	// Warmup lists the jobs set-up runs once before timing.
	Warmup []plan
}

// pacedTimeScale is the instrument pacing of the echem_paced and
// mixed_facility workloads. At 0 the simulator's CPU time dominates
// and p50s move 15–25% between runs; at 0.001 instrument time
// dominates, and a 30 s run still completes about a hundred echem
// jobs, enough for ten beyond the p90.
const pacedTimeScale = 0.001

// templates holds the repository's example inputs the generators
// start from.
type templates struct {
	cvClassic []byte
	spec      *dag.Spec
}

func loadTemplates(root string) (*templates, error) {
	data, err := os.ReadFile(filepath.Join(root, "examples", "dag", "cv_classic.json"))
	if err != nil {
		return nil, err
	}
	spec, err := dag.DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	return &templates{cvClassic: data, spec: spec}, nil
}

// workloads builds the three mixes over the loaded templates.
func workloads(tp *templates) map[string]*workload {
	return map[string]*workload{
		// The paper's workflow with the instrument as the bottleneck:
		// lease hand-off, retrieval under the other tenant's hold and
		// the verdict path dominate. One cv job to two dags per tenant;
		// every dag acquires a new program, so the DAG cache never hits.
		"echem_paced": {
			Name:      "echem_paced",
			Lab:       "examples/labs/echem_classic.yaml",
			TimeScale: pacedTimeScale,
			Tenants:   []string{"acl", "dgx"},
			Mix:       [][]string{{kindCV, kindDAG, kindDAG}, {kindCV, kindDAG, kindDAG}},
			build: func(kind string, rng *rand.Rand, t, i int) plan {
				if kind == kindCV {
					return cvPlan(rng)
				}
				return tp.seededDAG(rng, fmt.Sprintf("cv-seeded-%d-%d", t, i))
			},
			Warmup: []plan{cvPlan(rand.New(rand.NewSource(-1))), tp.seededDAG(rand.New(rand.NewSource(-2)), "cv-warmup")},
		},
		// Pure per-job orchestration: admission, decode, WAL, dispatch,
		// connect, journal fsyncs and RPCs, with no instrument work. It
		// is CPU- and timer-bound, so on a shared virtual machine its
		// numbers follow the hypervisor's steal (30% apart between runs
		// at 2% and 13% steal): run it by name; BENCHMARK.json leaves it
		// out.
		"control_plane": {
			Name:      "control_plane",
			Lab:       "examples/labs/echem_classic.yaml",
			TimeScale: 0,
			Tenants:   []string{"acl", "dgx"},
			Mix:       [][]string{{kindDAG}, {kindDAG}},
			build: func(_ string, rng *rand.Rand, t, i int) plan {
				return statusDAG(rng, fmt.Sprintf("cp-%d-%d", t, i))
			},
			Warmup: []plan{statusDAG(rand.New(rand.NewSource(-3)), "cp-warmup")},
		},
		// Two instruments interleave: an echem tenant whose verbatim
		// cv_classic resubmits hit the DAG cache, with a minority of
		// campaigns, and a scan tenant streaming many small tiles on
		// the disjoint stem lease.
		"mixed_facility": {
			Name:      "mixed_facility",
			Lab:       "examples/labs/microscopy.yaml",
			TimeScale: pacedTimeScale,
			Tenants:   []string{"acl", "stem"},
			Mix: [][]string{
				{kindCV, kindCV, kindCV, kindDAG, kindDAG, kindDAG, kindDAG, kindCampaign},
				{kindScan},
			},
			build: func(kind string, rng *rand.Rand, t, i int) plan {
				switch kind {
				case kindCV:
					return cvPlan(rng)
				case kindDAG:
					return tp.verbatimDAG()
				case kindCampaign:
					return campaignPlan(rng)
				}
				return scanPlan(rng)
			},
			// The verbatim graph warms the cache, so every timed
			// resubmit hits it.
			Warmup: []plan{cvPlan(rand.New(rand.NewSource(-1))), tp.verbatimDAG(), scanPlan(rand.New(rand.NewSource(-4)))},
		},
	}
}

// jobStream yields one tenant's jobs in order; the same seed yields
// the same sequence.
type jobStream struct {
	w       *workload
	t       int
	i       int
	rng     *rand.Rand
	pending []string
}

func newJobStream(w *workload, seed int64, t int) *jobStream {
	return &jobStream{w: w, t: t, rng: rand.New(rand.NewSource(seed*7919 + int64(t)))}
}

func (s *jobStream) next() plan {
	if len(s.pending) == 0 {
		block := s.w.Mix[s.t]
		for _, k := range s.rng.Perm(len(block)) {
			s.pending = append(s.pending, block[k])
		}
	}
	kind := s.pending[0]
	s.pending = s.pending[1:]
	p := s.w.build(kind, s.rng, s.t, s.i)
	p.Spec.Tenant = s.w.Tenants[s.t]
	s.i++
	return p
}

// echemPoints is the point count of every generated CV program: half
// the paper's 1200, so the simulator's CPU time, which runs inside the
// instrument hold, stays a small part of it and the paced workloads
// measure the lab's pacing more than the host's CPU.
const echemPoints = 600

// cvPlan draws a classic cv job: the paper's program at a seeded scan
// rate, 50–100 mV/s, wide enough for the √rate check on the peaks.
func cvPlan(rng *rand.Rand) plan {
	cv := core.PaperCVParams()
	cv.RateMVs = float64(50 + 10*rng.Intn(6))
	cv.Points = echemPoints
	return plan{
		Kind:  kindCV,
		Spec:  sched.JobSpec{Kind: sched.KindCV, ScanRateMVs: cv.RateMVs, Points: cv.Points},
		Fills: true,
		CV:    &cv,
	}
}

// seededDAG is cv_classic.json with a seeded acquire program: a scan
// rate drawn from a continuous range, so every content key is new.
func (tp *templates) seededDAG(rng *rand.Rand, name string) plan {
	cv := core.PaperCVParams()
	cv.RateMVs = 50 + 50*rng.Float64()
	cv.Points = echemPoints
	var spec dag.Spec
	if err := json.Unmarshal(tp.cvClassic, &spec); err != nil {
		panic(err) // decoded once already in loadTemplates
	}
	spec.Name = name
	for _, n := range spec.Nodes {
		if n.Type == dag.TypeAcquire {
			n.Acquire = &dag.AcquireSpec{System: core.PaperSystemParams(), CV: cv}
		}
	}
	return dagPlan(&spec, &cv, true)
}

// verbatimDAG resubmits examples/dag/cv_classic.json unchanged.
func (tp *templates) verbatimDAG() plan {
	cv := core.PaperCVParams()
	for _, n := range tp.spec.Nodes {
		if n.Type == dag.TypeAcquire && n.Acquire != nil {
			cv = n.Acquire.CV
		}
	}
	return plan{
		Kind:  kindDAG,
		Spec:  sched.JobSpec{Kind: sched.KindDAG, DAG: append(json.RawMessage(nil), tp.cvClassic...)},
		Fills: true,
		CV:    &cv,
		Nodes: len(tp.spec.Nodes),
	}
}

// statusReads are the control-plane calls: reads with no effect on
// the cell, the syringe or the potentiostat pipeline.
var statusReads = []dag.Node{
	{Object: "jkem", Method: "Status"},
	{Object: "jkem", Method: "ReadTemperature", Args: []any{1}},
	{Object: "jkem", Method: "ReadPH", Args: []any{1}},
	{Object: "sp200", Method: "StatusSP200"},
	{Object: "sp200", Method: "BusySP200"},
}

// statusDAG draws a graph of 3–8 status reads, each depending on up
// to two earlier nodes.
func statusDAG(rng *rand.Rand, name string) plan {
	n := 3 + rng.Intn(6)
	spec := dag.Spec{Name: name}
	for i := 0; i < n; i++ {
		call := statusReads[rng.Intn(len(statusReads))]
		node := &dag.Node{
			ID:     fmt.Sprintf("n%d", i),
			Type:   dag.TypePyro,
			Object: call.Object,
			Method: call.Method,
			Args:   call.Args,
		}
		for d := rng.Intn(3); d > 0 && i > 0; d-- {
			dep := fmt.Sprintf("n%d", rng.Intn(i))
			if !contains(node.Needs, dep) {
				node.Needs = append(node.Needs, dep)
			}
		}
		spec.Nodes = append(spec.Nodes, node)
	}
	return dagPlan(&spec, nil, false)
}

func dagPlan(spec *dag.Spec, cv *core.CVParams, fills bool) plan {
	data, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a dag.Spec always marshals
	}
	return plan{
		Kind:  kindDAG,
		Spec:  sched.JobSpec{Kind: sched.KindDAG, DAG: data},
		Fills: fills,
		CV:    cv,
		Nodes: len(spec.Nodes),
	}
}

// campaignPlan draws a one-cell, two-round campaign at seeded
// concentrations.
func campaignPlan(rng *rand.Rand) plan {
	c1 := 0.5 + float64(rng.Intn(8))*0.5
	c2 := 0.5 + float64(rng.Intn(8))*0.5
	return plan{
		Kind: kindCampaign,
		Spec: sched.JobSpec{Kind: sched.KindCampaign, Cells: []sched.CellSpec{{
			Name:   "bench-cell",
			Rounds: []sched.RoundSpec{{ConcentrationMM: c1}, {ConcentrationMM: c2}},
		}}},
		Fills: true,
	}
}

// scanPlan draws a survey → steer → zoom → zoom scan over a 5–6 tile
// grid. MinScore 0 always steers, so passes = steers + 1. The dwell
// paces the beam: at the default 5 µs a pass takes microseconds of
// wall time at pacedTimeScale, and the scan would measure the CPU, not
// the instrument; small tiles keep the CPU per tile small.
func scanPlan(rng *rand.Rand) plan {
	spec := &sched.ScanSpec{
		TilesX:        5 + rng.Intn(2),
		TilesY:        5 + rng.Intn(2),
		PixelsPerTile: 6,
		DwellUS:       60_000 + 10_000*rng.Float64(),
		ZoomFactor:    2 + 2*rng.Float64(),
		MaxSteers:     2,
	}
	return plan{Kind: kindScan, Spec: sched.JobSpec{Kind: sched.KindScan, Scan: spec}}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
