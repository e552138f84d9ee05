package results

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

var v1Dir = flag.String("v1dir", "", "write TestReadV1TracedFile's version 1 and version 2 files to this directory, for checking the CLIs on them")

// v1File is the version 1 file shape: every trace a JSON trace object.
type v1File struct {
	File
	Cells      []v1Cell      `json:"cells"`
	MultiCells []v1MultiCell `json:"multiCells,omitempty"`
}

type v1Cell struct {
	Cell
	Trace *taskrt.Trace `json:"trace,omitempty"`
}

type v1MultiCell struct {
	MultiCell
	Trace *taskrt.Trace `json:"trace,omitempty"`
}

// writeV1 renders f as the version 1 file of the same campaign.
func writeV1(t *testing.T, f *File) []byte {
	t.Helper()
	unpack := func(p taskrt.PackedTrace) *taskrt.Trace {
		tr, err := p.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	v1 := v1File{File: *f}
	v1.Version = 1
	for _, c := range f.Cells {
		tr := unpack(c.Trace)
		c.Trace = nil
		v1.Cells = append(v1.Cells, v1Cell{c, tr})
	}
	for _, c := range f.MultiCells {
		tr := unpack(c.Trace)
		c.Trace = nil
		v1.MultiCells = append(v1.MultiCells, v1MultiCell{c, tr})
	}
	data, err := json.MarshalIndent(v1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"trace": {`)) || !bytes.Contains(data, []byte(`"version": 1,`)) {
		t.Fatal("built file is not a version 1 traced file")
	}
	return data
}

// TestReadV1TracedFile: a version 1 file, whose traces are JSON objects,
// reads into exactly the campaign its version 2 counterpart holds —
// writing it back gives the version 2 bytes — so every reader (-in
// reports, resultdiff, obsdump perfetto) sees the same data in both.
func TestReadV1TracedFile(t *testing.T) {
	cfg := harness.Config{
		Class:          workloads.ClassTest,
		Reps:           2,
		Seed:           3,
		Spec:           machine.Spec{Topo: topology.SmallTest()},
		TraceTasks:     true,
		TraceDecisions: true,
	}
	kinds := []harness.Kind{harness.KindBaseline, harness.KindILAN}
	b, _ := workloads.ByName("Matmul")
	mx, err := harness.Run([]workloads.Benchmark{b}, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	multiCfg := cfg
	multiCfg.Multi = &harness.CoRun{Benches: []string{"Matmul", "CG"}}
	mm, err := harness.RunMulti(kinds, multiCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    *File
	}{
		{"solo", FromMatrix(mx, cfg, "v1")},
		{"multi", FromMulti(mm, multiCfg, "v1")},
	} {
		t.Run(c.name, func(t *testing.T) {
			var v2 bytes.Buffer
			if err := c.f.Write(&v2); err != nil {
				t.Fatal(err)
			}
			v1 := writeV1(t, c.f)
			old, err := Read(bytes.NewReader(v1))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := old.Write(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), v2.Bytes()) {
				t.Fatal("version 1 file read and written back differs from the version 2 file")
			}
			cur, err := Read(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if d := Compare(old, cur, 0); len(d) != 0 {
				t.Fatalf("version 1 and 2 files compare unequal: %v", d)
			}
			traces := 0
			for i := range cur.Cells {
				traces += samePerfetto(t, old.Cells[i].Trace, cur.Cells[i].Trace)
			}
			for i := range cur.MultiCells {
				traces += samePerfetto(t, old.MultiCells[i].Trace, cur.MultiCells[i].Trace)
			}
			if traces == 0 {
				t.Fatal("campaign recorded no task trace")
			}
			if *v1Dir != "" {
				for name, data := range map[string][]byte{"v1": v1, "v2": v2.Bytes()} {
					path := filepath.Join(*v1Dir, c.name+"-"+name+".json")
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// samePerfetto checks that two packed traces export the same Perfetto
// bytes and returns how many traces it compared.
func samePerfetto(t *testing.T, a, b taskrt.PackedTrace) int {
	t.Helper()
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	var out [2]bytes.Buffer
	for i, p := range []taskrt.PackedTrace{a, b} {
		tr, err := p.Unpack()
		if err != nil {
			t.Fatal(err)
		}
		if err := chrometrace.Write(&out[i], tr, nil, chrometrace.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("version 1 and 2 traces export different Perfetto bytes")
	}
	return 1
}
