package labreg

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"ice/internal/sched"
	"ice/internal/testutil"
)

// TestScanJobThroughFacility runs the microscopy workload end to end in
// its mixed shape: a scan job and a cv job in flight together on two
// workers, against the config-built facility, with health supervision
// wired from the registry's instrument map. The scan must survey,
// steer onto the specimen's best structure, and return a
// digest-verified scan file with the scan lease (not the echem pair)
// held and then released; the cv job must measure; the per-station
// audit journals must show each acquisition exactly once; and no lease
// or goroutine may leak.
func TestScanJobThroughFacility(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := loadExample(t, "microscopy.yaml")
	if err := f.EnableAudit(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := sched.New(sched.Config{
		Dir:     filepath.Join(dir, "state"),
		Workers: 2,
		Health: sched.HealthConfig{
			ProbeInterval: 500 * time.Millisecond,
			Instruments:   f.HealthInstruments(),
			ClassesFor:    f.ClassesFor,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.WireProbers(s, sched.NewGateway(s)))
	s.SetRunner(&sched.LabRunner{Connector: f, Leases: s.Leases(), Dir: s.Dir(), Metrics: s.Metrics()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// Disjoint leases (the stem scanner vs the sp200/jkem pair) and two
	// workers let the raster and the echem acquisition interleave.
	job, err := s.Submit(sched.JobSpec{
		Tenant: "stem",
		Kind:   sched.KindScan,
		Scan:   &sched.ScanSpec{TilesX: 6, TilesY: 6, PixelsPerTile: 8, ZoomFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cvJob, err := s.Submit(sched.JobSpec{Tenant: "acl", Kind: sched.KindCV, Points: 600})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("scan job ended %s: %s", final.State, final.Error)
	}

	var res sched.ScanResult
	if err := json.Unmarshal([]byte(final.Result), &res); err != nil {
		t.Fatal(err)
	}
	if res.SHA256 == "" || res.File == "" {
		t.Fatalf("scan result missing digest/file: %+v", res)
	}
	if res.Tiles < 36 || res.Passes < 1 {
		t.Fatalf("scan result too small: %+v", res)
	}
	if !res.Zoomed || res.ZoomRegion == nil {
		t.Fatalf("steering never zoomed: %+v", res)
	}
	if res.Passes < 2 {
		t.Fatalf("zoomed scan has %d pass(es), want survey + zoom", res.Passes)
	}

	cvFinal, err := s.WaitTerminal(ctx, cvJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cvFinal.State != sched.StateDone {
		t.Fatalf("cv job on mixed facility ended %s: %s", cvFinal.State, cvFinal.Error)
	}
	var cv sched.CVResult
	if err := json.Unmarshal(cvFinal.Result, &cv); err != nil {
		t.Fatal(err)
	}
	if cv.SHA256 == "" || cv.Points == 0 {
		t.Fatalf("cv result incomplete: %+v", cv)
	}
	if cvFinal.StartedUnixNano >= final.FinishedUnixNano || final.StartedUnixNano >= cvFinal.FinishedUnixNano {
		t.Errorf("scan ran [%d, %d] and cv [%d, %d]: never in flight together",
			final.StartedUnixNano, final.FinishedUnixNano, cvFinal.StartedUnixNano, cvFinal.FinishedUnixNano)
	}

	// Exactly once across every station's audit journal: one
	// potentiostat start, one survey start, one steer, one finish.
	var journals []string
	for _, st := range f.Stations() {
		journals = append(journals, st.AuditPath())
	}
	counts := testutil.AuditCounts(t, journals...)
	for _, method := range []string{"StartChannelSP200", "StartScanTech", "SteerScan", "FinishScan"} {
		if counts[method] != 1 {
			t.Errorf("audit journals show %s ×%d, want exactly once (all counts: %v)", method, counts[method], counts)
		}
	}

	if active := s.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after the mixed workload: %+v", active)
	}
}
