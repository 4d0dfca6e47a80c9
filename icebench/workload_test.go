package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ice/internal/dag"
)

// sequence renders the first n jobs of every tenant of w for seed.
func sequence(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	var out bytes.Buffer
	for ti := range w.Tenants {
		s := newJobStream(w, seed, ti)
		for i := 0; i < n; i++ {
			b, err := json.Marshal(s.next())
			if err != nil {
				t.Fatal(err)
			}
			out.Write(b)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestSeedDeterminesJobSequence(t *testing.T) {
	tp, err := loadTemplates("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads(tp) {
		a := sequence(t, w, 42, 60)
		if b := sequence(t, w, 42, 60); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 generated two different job sequences", name)
		}
		if c := sequence(t, w, 43, 60); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 generated the same job sequence", name)
		}
	}
}

// TestGeneratedSpecsAdmissible holds every generated job to the
// gateway's own admission check, and the echem_paced graphs to
// distinct acquire programs, so every DAG content key is new.
func TestGeneratedSpecsAdmissible(t *testing.T) {
	tp, err := loadTemplates("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads(tp) {
		acquires := map[string]bool{}
		for ti := range w.Tenants {
			s := newJobStream(w, 7, ti)
			for i := 0; i < 200; i++ {
				p := s.next()
				if err := p.Spec.Validate(); err != nil {
					t.Fatalf("%s tenant %d job %d: %v", name, ti, i, err)
				}
				if name != "echem_paced" || p.Kind != kindDAG {
					continue
				}
				spec, err := dag.DecodeSpec(p.Spec.DAG)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range spec.Nodes {
					if n.Type == dag.TypeAcquire {
						d := n.SpecDigest()
						if acquires[d] {
							t.Fatalf("echem_paced: acquire program repeated at tenant %d job %d", ti, i)
						}
						acquires[d] = true
					}
				}
			}
		}
	}
}
