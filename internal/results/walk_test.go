package results

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// corunFile returns a fresh file of the small CG+FT co-run campaign.
func corunFile(t *testing.T) *File {
	t.Helper()
	mm, cfg := multiCampaign(t)
	return FromMulti(mm, cfg, "corun")
}

func TestViewsNameSoloAndCoRunCells(t *testing.T) {
	f := corunFile(t)
	var names []string
	for _, v := range f.Views() {
		names = append(names, v.Name)
	}
	want := "CG/baseline CG/ilan FT/baseline FT/ilan CG+FT/baseline CG+FT/ilan"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("walk order %q, want %q", got, want)
	}
	v := f.View("CG+FT/ilan")
	if v == nil || v.Bench != "CG+FT" || v.Kind != "ilan" {
		t.Fatalf("co-run view = %+v", v)
	}
	for _, s := range []string{"elapsed", "arrival[CG]", "start[FT]", "makespan[FT]"} {
		if _, ok := v.Series[s]; !ok {
			t.Fatalf("co-run view lacks series %s: %v", s, v.Series)
		}
	}

	// A one-program co-run keeps a '+' so it never takes its solo
	// reference cell's name.
	f.CoRun.Benches = []string{"CG"}
	seen := map[string]bool{}
	for _, v := range f.Views() {
		if seen[v.Name] {
			t.Fatalf("two cells named %s", v.Name)
		}
		seen[v.Name] = true
	}
	if !seen["CG+/ilan"] {
		t.Fatalf("one-program co-run cells named %v", seen)
	}
}

func TestCompareCoRunMakespanDrift(t *testing.T) {
	a, b := corunFile(t), corunFile(t)
	if d := Compare(a, b, 0); len(d) != 0 {
		t.Fatalf("identical co-run files diff: %v", d)
	}
	mc := &b.MultiCells[1]
	for pi := range mc.Programs {
		if mc.Programs[pi].Program == "FT" {
			for r := range mc.Programs[pi].MakespanSec {
				mc.Programs[pi].MakespanSec[r] *= 1.5
			}
		}
	}
	d := Compare(a, b, 0.1)
	if len(d) != 1 || d[0].Bench != "CG+FT" || d[0].Kind != mc.Kind || d[0].Field != "makespan[FT]" ||
		math.Abs(d[0].Rel-0.5) > 1e-9 {
		t.Fatalf("diffs = %v, want one +50%% makespan[FT] drift on CG+FT/%s", d, mc.Kind)
	}
}

func TestCompareCoRunCellMissing(t *testing.T) {
	a, b := corunFile(t), corunFile(t)
	b.MultiCells = b.MultiCells[:1]
	d := Compare(a, b, 0.5)
	if len(d) != 1 || !d[0].Missing || d[0].Bench != "CG+FT" || d[0].Kind != a.MultiCells[1].Kind {
		t.Fatalf("diffs = %v, want the co-run cell missing", d)
	}
}

func TestCompareCoRunNaNElapsed(t *testing.T) {
	a, b := corunFile(t), corunFile(t)
	b.MultiCells[0].Elapsed[0] = math.NaN()
	d := Compare(a, b, 1e9)
	if len(d) != 1 || d[0].Field != "elapsed" || !math.IsNaN(d[0].New) || !math.IsNaN(d[0].Rel) {
		t.Fatalf("diffs = %v, want one NaN elapsed diff", d)
	}
}

// A program present in one file only compares against NaN: it is never
// within tolerance.
func TestCompareCoRunProgramOnOneSide(t *testing.T) {
	a, b := corunFile(t), corunFile(t)
	b.MultiCells[0].Programs = b.MultiCells[0].Programs[:1]
	d := Compare(a, b, 1e9)
	if len(d) != 3 {
		t.Fatalf("diffs = %v, want arrival, makespan and start of the dropped program", d)
	}
	for _, x := range d {
		if !strings.HasSuffix(x.Field, "]") || !math.IsNaN(x.New) || !math.IsNaN(x.Rel) {
			t.Fatalf("diff %+v, want a NaN new side", x)
		}
	}
}

func TestCompareObsCoRunCounterDrift(t *testing.T) {
	a, b := corunFile(t), corunFile(t)
	snap := func(v float64) *obs.Snapshot {
		return &obs.Snapshot{Runs: 2, Counters: map[string]float64{"taskrt_steals_local_total": v}}
	}
	a.MultiCells[1].Obs, b.MultiCells[1].Obs = snap(100), snap(100)
	if d := CompareObs(a, b, 0); len(d) != 0 {
		t.Fatalf("identical co-run snapshots diff: %v", d)
	}
	b.MultiCells[1].Obs = snap(120)
	d := CompareObs(a, b, 0.1)
	if len(d) != 1 || d[0].Bench != "CG+FT" || d[0].What != "drift" ||
		d[0].Metric != "taskrt_steals_local_total" {
		t.Fatalf("diffs = %v, want one co-run counter drift", d)
	}
}

// tracedConfig is a small traced campaign: task traces and decisions.
func tracedConfig() harness.Config {
	return harness.Config{
		Class:          workloads.ClassTest,
		Reps:           2,
		Seed:           5,
		Spec:           machine.Spec{Topo: topology.SmallTest()},
		TraceTasks:     true,
		TraceDecisions: true,
	}
}

// exportRep0 writes one cell's Perfetto export the way ilanexp did
// before the export went through the results file: the cell's rep-0
// trace, decoded, with its rep-0 snapshot's decisions.
func exportRep0(t *testing.T, trace taskrt.PackedTrace, rep0 *obs.Snapshot) []byte {
	t.Helper()
	tr, err := trace.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	var decisions []obs.Decision
	if rep0 != nil {
		decisions = rep0.Decisions
	}
	var buf bytes.Buffer
	if err := chrometrace.Write(&buf, tr, decisions, chrometrace.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWritePerfettoPicksTracedILANCell: with no cell named, the export
// is the first traced ILAN cell's, as ilanexp -perfetto picked it from
// the campaign matrix — for a solo campaign (the ILAN cell of the first
// benchmark) and a co-run one (the ILAN co-run cell; the solo reference
// cells carry no trace). The file is written and read back first, so the
// pick also holds for obsdump on a saved file.
func TestWritePerfettoPicksTracedILANCell(t *testing.T) {
	cfg := tracedConfig()
	kinds := []harness.Kind{harness.KindBaseline, harness.KindILAN}
	var benches []workloads.Benchmark
	for _, name := range []string{"Matmul", "CG"} {
		b, _ := workloads.ByName(name)
		benches = append(benches, b)
	}
	mx, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	multiCfg := cfg
	multiCfg.Multi = &harness.CoRun{Benches: []string{"Matmul", "CG"}}
	mm, err := harness.RunMulti(kinds, multiCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	soloPick := mx.Cell("Matmul", harness.KindILAN)
	coPick := mm.Cells[harness.KindILAN]
	for _, c := range []struct {
		name, cell string
		f          *File
		want       []byte
	}{
		{"solo", "Matmul/ilan", FromMatrix(mx, cfg, "solo"),
			exportRep0(t, soloPick.PackedTrace(), soloPick.Samples[0].Obs)},
		{"corun", "Matmul+CG/ilan", FromMulti(mm, multiCfg, "corun"),
			exportRep0(t, coPick.PackedTrace(), coPick.Samples[0].Obs)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var saved bytes.Buffer
			if err := c.f.Write(&saved); err != nil {
				t.Fatal(err)
			}
			f, err := Read(&saved)
			if err != nil {
				t.Fatal(err)
			}
			var picked, named bytes.Buffer
			if err := f.WritePerfetto(&picked, ""); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(picked.Bytes(), c.want) {
				t.Fatal("export of the picked cell differs from the ILAN cell's rep-0 export")
			}
			if err := f.WritePerfetto(&named, c.cell); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(named.Bytes(), c.want) {
				t.Fatalf("export of cell %s differs from the picked cell's", c.cell)
			}
			if !bytes.Contains(c.want, []byte(`"ph":"i"`)) {
				t.Fatal("export carries no scheduler instants: decisions were not recorded")
			}
		})
	}
}

func TestWritePerfettoWithoutTrace(t *testing.T) {
	f := corunFile(t)
	for _, cell := range []string{"", "CG+FT/ilan", "no/such"} {
		if err := f.WritePerfetto(&bytes.Buffer{}, cell); err == nil {
			t.Fatalf("cell %q: untraced file exported a trace", cell)
		}
	}
}
