package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"time"

	"ice/internal/analysis"
	"ice/internal/dag"
	"ice/internal/echem"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/sched"
)

// Probe sizes: enough repetitions for a steady median, few enough to
// keep a run's overhead to about a second.
const (
	probeSimulations = 6
	probeClassify    = 6
	probeWALAppends  = 100
	probeLeaseCycles = 2000
)

// runProbes times single layers in isolation on the workload's own
// generated inputs: echem.Simulate over its CV programs, ML
// classification of the files it retrieved, dag.CacheKey +
// Cache.Lookup over its graphs against the run's cache, WAL.Append of
// its specs on a scratch directory, and a Leases.Acquire/Release cycle.
func runProbes(st *stack, win *window, files [][]byte, scratch string) (metrics, error) {
	var m metrics

	var sims []float64
	for _, r := range win.Records {
		if len(sims) == probeSimulations {
			break
		}
		if r.Plan.CV == nil {
			continue
		}
		wave, err := r.Plan.CV.Program().Waveform()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := echem.Simulate(echem.DefaultCell(), wave, r.Plan.CV.Points); err != nil {
			return nil, err
		}
		sims = append(sims, msSince(t0))
	}
	m.add("echem.simulate_ms", zeroNaN(median(sims)), "ms", "")

	var cls []float64
	if len(files) > 0 {
		clf, err := dag.ClassifierForSeed(dag.DefaultClassifierSeed)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if len(cls) == probeClassify {
				break
			}
			t0 := time.Now()
			mf, err := potentiostat.ParseMPT(bytes.NewReader(f))
			if err != nil {
				return nil, err
			}
			feats, err := ml.Features(analysis.FromRecords(mf.Records))
			if err != nil {
				return nil, err
			}
			if _, err := clf.Predict(feats); err != nil {
				return nil, err
			}
			cls = append(cls, msSince(t0))
		}
	}
	m.add("ml.classify_probe_ms", zeroNaN(median(cls)), "ms", "")

	cache, err := dag.OpenCache(filepath.Join(st.s.Dir(), "dagcache"))
	if err != nil {
		return nil, err
	}
	var keys int
	var keyTime time.Duration
	for _, r := range win.Records {
		if r.Plan.Kind != kindDAG {
			continue
		}
		spec, err := dag.DecodeSpec(r.Plan.Spec.DAG)
		if err != nil {
			return nil, err
		}
		digests := map[string]string{}
		for _, n := range spec.Nodes {
			digests[n.ID] = n.SpecDigest()
		}
		t0 := time.Now()
		for _, n := range spec.Nodes {
			inputs := make([]string, len(n.Needs))
			for i, dep := range n.Needs {
				inputs[i] = digests[dep]
			}
			cache.Lookup(dag.CacheKey(digests[n.ID], inputs))
		}
		keyTime += time.Since(t0)
		keys += len(spec.Nodes)
	}
	m.add("dag.cache_key_us", ratio(float64(keyTime.Microseconds()), float64(keys)), "us", "")

	walDir := filepath.Join(scratch, "probe-wal")
	wal, _, err := sched.OpenWAL(walDir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < probeWALAppends; i++ {
		spec := win.Records[i%len(win.Records)].Plan.Spec
		if err := wal.Append(sched.WALRecord{Job: "probe", State: sched.StatePending, Spec: &spec}); err != nil {
			wal.Close()
			return nil, err
		}
	}
	m.add("sched.wal_append_us", float64(time.Since(t0).Microseconds())/probeWALAppends, "us", "")
	if err := wal.Close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}

	leases := sched.NewLeases(daemonLeaseTTL)
	defer leases.Close()
	ctx := context.Background()
	t0 = time.Now()
	for i := 0; i < probeLeaseCycles; i++ {
		l, err := leases.Acquire(ctx, st.echemRes[0], "probe")
		if err != nil {
			return nil, err
		}
		l.Release()
	}
	m.add("sched.lease_cycle_us", float64(time.Since(t0).Microseconds())/probeLeaseCycles, "us", "")
	return m, nil
}
