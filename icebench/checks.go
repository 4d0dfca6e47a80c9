package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/sched"
)

// peakTolerance bounds how far one job's anodic peak / √(scan rate)
// may stray from the run's median ratio (Randles–Ševčík: at a fixed
// concentration the peak scales with √v).
const peakTolerance = 0.05

// checkWindow verifies every output of a window after it ended and
// returns the failures plus the echem measurements it re-read.
func checkWindow(st *stack, win *window) ([]string, [][]byte) {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	echem, scan, err := freshMounts(st)
	if err != nil {
		return []string{err.Error()}, nil
	}
	defer func() {
		for _, m := range []datachan.Share{echem, scan} {
			if m != nil {
				m.Close()
			}
		}
	}()
	var files [][]byte
	reread := func(id string, m datachan.Share, file, digest string) {
		if m == nil {
			failf("%s: no data mount to re-read %s", id, file)
			return
		}
		data, err := m.ReadAllVerified(file)
		if err != nil {
			failf("%s: re-read %s: %v", id, file, err)
			return
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != digest {
			failf("%s: %s re-read as sha %.12s, job reported %.12s", id, file, got, digest)
			return
		}
		if m == echem {
			files = append(files, data)
		}
	}

	type peak struct {
		id    string
		ratio float64
	}
	var peaks []peak
	for _, r := range win.Records {
		id := r.ID
		if id == "" {
			failf("%s job never admitted: %s", r.Plan.Kind, r.Err)
			continue
		}
		if !r.Job.State.Terminal() {
			failf("%s: not terminal (%s)", id, r.Job.State)
			continue
		}
		if r.Job.State != sched.StateDone || r.Err != "" {
			failf("%s (%s): %s %s %s", id, r.Plan.Kind, r.Job.State, r.Job.Error, r.Err)
			continue
		}
		switch r.Plan.Kind {
		case kindCV:
			var res sched.CVResult
			if err := json.Unmarshal(r.Job.Result, &res); err != nil {
				failf("%s: cv result: %v", id, err)
				continue
			}
			// The file holds the starting sample plus one per programmed
			// point and cycle.
			if want := r.Plan.CV.Points*r.Plan.CV.Cycles + 1; res.Points != want {
				failf("%s: %d points, program gives %d", id, res.Points, want)
			}
			reread(id, echem, res.File, res.SHA256)
			peaks = append(peaks, peak{id, res.AnodicPeakUA / math.Sqrt(r.Plan.CV.RateMVs)})
		case kindDAG:
			var res dag.Result
			if err := json.Unmarshal(r.Job.Result, &res); err != nil {
				failf("%s: dag result: %v", id, err)
				continue
			}
			if n := res.NodesRun + res.NodesCached + res.NodesRestored; n != r.Plan.Nodes {
				failf("%s: %d run + %d cached + %d restored ≠ %d nodes", id, res.NodesRun, res.NodesCached, res.NodesRestored, r.Plan.Nodes)
			}
			for _, n := range res.Nodes {
				switch n.Type {
				case dag.TypeRetrieve:
					reread(id, echem, n.File, n.Digest)
				case dag.TypeClassify:
					if n.ClassName != ml.ClassName(ml.ClassNormal) {
						failf("%s: verdict %q, want normal", id, n.ClassName)
					}
				}
			}
		case kindScan:
			var res sched.ScanResult
			if err := json.Unmarshal(r.Job.Result, &res); err != nil {
				failf("%s: scan result: %v", id, err)
				continue
			}
			spec := r.Plan.Spec.Scan
			if res.Tiles < spec.TilesX*spec.TilesY {
				failf("%s: %d tiles, grid is %dx%d", id, res.Tiles, spec.TilesX, spec.TilesY)
			}
			if res.Passes != res.Steers+1 {
				failf("%s: %d passes for %d steers", id, res.Passes, res.Steers)
			}
			reread(id, scan, res.File, res.SHA256)
		case kindCampaign:
			var res sched.CampaignResult
			if err := json.Unmarshal(r.Job.Result, &res); err != nil {
				failf("%s: campaign result: %v", id, err)
				continue
			}
			want := len(r.Plan.Spec.Cells[0].Rounds)
			if len(res.Cells) != 1 || len(res.Cells[0].Rounds) != want {
				failf("%s: campaign result %+v, want one cell of %d rounds", id, res, want)
			}
		}
	}
	if len(peaks) > 0 {
		ratios := make([]float64, len(peaks))
		for i, p := range peaks {
			ratios[i] = p.ratio
		}
		mid := median(ratios)
		for _, p := range peaks {
			if math.Abs(p.ratio/mid-1) > peakTolerance {
				failf("%s: anodic peak/√rate %.4g strays %.1f%% from the run's %.4g", p.id, p.ratio, 100*math.Abs(p.ratio/mid-1), mid)
			}
		}
	}
	if err := checkLeases(st); err != nil {
		fails = append(fails, err.Error())
	}
	return fails, files
}

// freshMounts opens new data mounts on the facility's stations, apart
// from every mount the jobs used.
func freshMounts(st *stack) (echem, scan datachan.Share, err error) {
	sess, echem, err := st.fac.ConnectSession()
	if err != nil {
		return nil, nil, fmt.Errorf("fresh echem mount: %w", err)
	}
	sess.Close()
	if st.stemRes != "" {
		sess, m, _, err := st.fac.ConnectScan()
		if err != nil {
			echem.Close()
			return nil, nil, fmt.Errorf("fresh scan mount: %w", err)
		}
		sess.Close()
		scan = m
	}
	return echem, scan, nil
}

// checkLeases asks the gateway for active leases; after a workload
// there must be none.
func checkLeases(st *stack) error {
	resp, err := http.Get(st.base + "/v1/leases")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Leases []sched.LeaseInfo `json:"leases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("leases: %w", err)
	}
	if len(out.Leases) != 0 {
		return fmt.Errorf("%d leases still active after the workload: %+v", len(out.Leases), out.Leases)
	}
	return nil
}

// checkAudit holds the stations' audit journals to exactly one
// acquisition per job that acquired live: one potentiostat start per
// cv job, live dag acquire and campaign round, and one scan start,
// finish and steer per scan pass.
func checkAudit(st *stack, recs []*jobRecord) []string {
	want := map[string]int{}
	for _, r := range recs {
		switch r.Plan.Kind {
		case kindCV:
			want["StartChannelSP200"]++
		case kindDAG:
			var res dag.Result
			if json.Unmarshal(r.Job.Result, &res) == nil {
				for _, n := range res.Nodes {
					if n.Type == dag.TypeAcquire && !n.Cached {
						want["StartChannelSP200"]++
					}
				}
			}
		case kindCampaign:
			want["StartChannelSP200"] += len(r.Plan.Spec.Cells[0].Rounds)
		case kindScan:
			var res sched.ScanResult
			if json.Unmarshal(r.Job.Result, &res) == nil {
				want["StartScanTech"]++
				want["FinishScan"]++
				want["SteerScan"] += res.Steers
			}
		}
	}
	got := map[string]int{}
	for _, s := range st.fac.Stations() {
		data, err := os.ReadFile(s.AuditPath())
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return []string{err.Error()}
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			return []string{err.Error()}
		}
		for _, e := range entries {
			got[e.Method]++
		}
	}
	var fails []string
	methods := make([]string, 0, len(want))
	for m := range want {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		if got[m] != want[m] {
			fails = append(fails, fmt.Sprintf("audit: %s ran %d times, %d jobs acquired", m, got[m], want[m]))
		}
	}
	return fails
}
