package results

import (
	"bytes"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// multiCampaign runs a small CG+FT co-run under baseline and ILAN.
func multiCampaign(t *testing.T) (*harness.MultiMatrix, harness.Config) {
	t.Helper()
	cfg := harness.Config{
		Class: workloads.ClassTest,
		Reps:  2,
		Seed:  7,
		Spec:  machine.Spec{Topo: topology.SmallTest()},
		Multi: &harness.CoRun{Benches: []string{"CG", "FT"}},
	}
	mm, err := harness.RunMulti([]harness.Kind{harness.KindBaseline, harness.KindILAN}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mm, cfg
}

func TestFromMultiRoundTrip(t *testing.T) {
	mm, cfg := multiCampaign(t)
	f := FromMulti(mm, cfg, "corun")
	// Solo reference cells ride as ordinary cells: 2 benches x 2 kinds.
	if len(f.Cells) != 4 {
		t.Fatalf("file has %d solo cells, want 4", len(f.Cells))
	}
	if len(f.MultiCells) != 2 || f.CoRun == nil || f.CoRun.Scenario() != "CG+FT" {
		t.Fatalf("multi campaign not persisted: %d cells, corun %+v", len(f.MultiCells), f.CoRun)
	}

	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := g.ToMultiMatrix()
	if back == nil {
		t.Fatal("round-tripped file reconstructs no multi campaign")
	}
	if back.CoRun.Scenario() != "CG+FT" {
		t.Fatalf("co-run descriptor lost: %+v", back.CoRun)
	}
	for _, k := range mm.Kinds {
		orig, rt := mm.Cells[k], back.Cells[k]
		if rt == nil || len(rt.Samples) != len(orig.Samples) {
			t.Fatalf("%s: cell lost in round trip", k)
		}
		for pi := range orig.Samples[0].Programs {
			if got, want := back.Slowdown(k, pi), mm.Slowdown(k, pi); got != want {
				t.Fatalf("%s program %d: slowdown %v != original %v", k, pi, got, want)
			}
		}
		for rep := range orig.Samples {
			a, b := orig.Samples[rep], rt.Samples[rep]
			if a.ElapsedSec != b.ElapsedSec {
				t.Fatalf("%s rep %d: elapsed %v != %v", k, rep, b.ElapsedSec, a.ElapsedSec)
			}
			for pi := range a.Programs {
				pa, pb := a.Programs[pi], b.Programs[pi]
				if pa.Program != pb.Program || pa.Bench != pb.Bench ||
					pa.ArrivalSec != pb.ArrivalSec || pa.StartSec != pb.StartSec ||
					pa.MakespanSec != pb.MakespanSec {
					t.Fatalf("%s rep %d program %d differs: %+v vs %+v", k, rep, pi, pa, pb)
				}
			}
		}
	}
}

func TestToMultiMatrixNilForSoloFile(t *testing.T) {
	mx, cfg := campaign(t, 1)
	if mm := FromMatrix(mx, cfg, "solo").ToMultiMatrix(); mm != nil {
		t.Fatal("solo file reconstructed a multi campaign")
	}
}

func TestReadRejectsBadMultiFiles(t *testing.T) {
	mm, cfg := multiCampaign(t)
	cases := map[string]func(f *File){
		"multi cells without corun": func(f *File) { f.CoRun = nil },
		"duplicate multi kind":      func(f *File) { f.MultiCells = append(f.MultiCells, f.MultiCells[0]) },
		"empty elapsed":             func(f *File) { f.MultiCells[0].Elapsed = nil },
		"short makespans": func(f *File) {
			p := &f.MultiCells[0].Programs[1]
			p.MakespanSec = p.MakespanSec[:1]
		},
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			f := FromMulti(mm, cfg, "corun")
			mut(f)
			var buf bytes.Buffer
			if err := f.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err == nil {
				t.Fatal("corrupt multi file accepted")
			}
		})
	}
}
