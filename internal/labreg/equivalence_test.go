package labreg

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/netsim"
	"ice/internal/sched"
)

// TestClassicConfigEquivalence is the registry's no-regression gate:
// the echem_classic.yaml config must materialize a facility whose cv
// run is indistinguishable from the old hardcoded -selflab deployment
// — same measurement digest, same point count, same ML verdict — and
// both must reproduce the measurement pinned from the hardwired tasks
// A–E runner. If this fails, the config file and the compiled-in lab
// have drifted apart, or the cv job no longer measures what the
// paper's workflow measured.
func TestClassicConfigEquivalence(t *testing.T) {
	spec := sched.JobSpec{Tenant: "acl", Kind: sched.KindCV, Points: 600}
	golden := sched.CVResult{
		File:         "CV_ch1_run001.mpt",
		SHA256:       "ac2973e57e1c22693355215ec3eccb315913e43adfcae61a482cef0ab5681955",
		Points:       601,
		AnodicPeakUA: 40.28399,
		ClassName:    "normal",
	}
	clf, err := dag.ClassifierForSeed(dag.DefaultClassifierSeed)
	if err != nil {
		t.Fatal(err)
	}

	runCV := func(t *testing.T, connector sched.Connector, dir string) sched.CVResult {
		t.Helper()
		s, err := sched.New(sched.Config{Dir: filepath.Join(dir, "state"), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.SetRunner(&sched.LabRunner{Connector: connector, Leases: s.Leases(), Dir: s.Dir(), Classifier: clf})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
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
		if final.State != sched.StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		var res sched.CVResult
		if err := json.Unmarshal([]byte(final.Result), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The hardcoded deployment, exactly as cmd/icegated -selflab built
	// it before the registry existed.
	classicDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(classicDir, "lab"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(filepath.Join(classicDir, "lab"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AttachLab(1, 0); err != nil {
		t.Fatal(err)
	}
	classic := runCV(t, &sched.DeploymentConnector{D: d, Host: netsim.HostDGX}, classicDir)

	// The same lab, declared.
	regDir := t.TempDir()
	f, err := LoadAndBuild(filepath.Join("..", "..", "examples", "labs", "echem_classic.yaml"), BuildOptions{
		Dir: filepath.Join(regDir, "lab"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	declared := runCV(t, f, regDir)

	if declared.SHA256 != classic.SHA256 {
		t.Errorf("measurement digest drifted: declared %s, classic %s", declared.SHA256, classic.SHA256)
	}
	if declared.File != classic.File {
		t.Errorf("measurement file name drifted: declared %s, classic %s", declared.File, classic.File)
	}
	if declared.Points != classic.Points {
		t.Errorf("points drifted: declared %d, classic %d", declared.Points, classic.Points)
	}
	if declared.AnodicPeakUA != classic.AnodicPeakUA {
		t.Errorf("anodic peak drifted: declared %v, classic %v", declared.AnodicPeakUA, classic.AnodicPeakUA)
	}
	if declared.ClassName != classic.ClassName {
		t.Errorf("ML verdict drifted: declared %q, classic %q", declared.ClassName, classic.ClassName)
	}
	if classic != golden {
		t.Errorf("cv measurement drifted from the pinned golden: got %+v, want %+v", classic, golden)
	}
}
