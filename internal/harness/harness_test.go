package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// testConfig is a small, fast campaign setup.
func testConfig() Config {
	return Config{
		Class: workloads.ClassTest,
		Reps:  2,
		Seed:  7,
		Spec:  machine.Spec{Topo: topology.SmallTest()},
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBaseline:    "baseline",
		KindILAN:        "ilan",
		KindILANNoMold:  "ilan-nomold",
		KindWorkSharing: "worksharing",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}

func TestNewSchedulerAllKinds(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		s := NewScheduler(k)
		if s == nil || s.Name() == "" {
			t.Errorf("NewScheduler(%v) bad scheduler", k)
		}
	}
}

func TestNewSchedulerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	NewScheduler(Kind(42))
}

func TestRunOneProducesSample(t *testing.T) {
	b, _ := workloads.ByName("CG")
	s, err := RunOne(b, KindBaseline, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ElapsedSec <= 0 || s.OverheadSec <= 0 || s.Tasks == 0 {
		t.Fatalf("degenerate sample: %+v", s)
	}
	if s.WeightedThreads <= 0 {
		t.Fatalf("WeightedThreads = %g", s.WeightedThreads)
	}
}

func TestRunOneDeterministicPerRep(t *testing.T) {
	b, _ := workloads.ByName("FT")
	cfg := testConfig()
	a, err := RunOne(b, KindILAN, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunOne(b, KindILAN, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedSec != c.ElapsedSec {
		t.Fatalf("same rep diverged: %v vs %v", a.ElapsedSec, c.ElapsedSec)
	}
	d, err := RunOne(b, KindILAN, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgNoisy := cfg
	cfgNoisy.Noise = machine.DefaultNoise()
	e, err := RunOne(b, KindILAN, cfgNoisy, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunOne(b, KindILAN, cfgNoisy, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	if e.ElapsedSec == f.ElapsedSec {
		t.Fatal("different noisy reps produced identical times")
	}
}

func TestRunCellRepCount(t *testing.T) {
	b, _ := workloads.ByName("Matmul")
	cfg := testConfig()
	cfg.Reps = 3
	cell, err := RunCell(b, KindWorkSharing, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(cell.Samples))
	}
	if len(cell.Times()) != 3 || len(cell.Overheads()) != 3 {
		t.Fatal("accessor lengths wrong")
	}
	if cell.MeanThreads() <= 0 {
		t.Fatal("MeanThreads not positive")
	}
}

func TestMatrixSpeedupAndOverhead(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "CG")}
	mx, err := Run(benches, []Kind{KindBaseline, KindILAN}, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := mx.Speedup("CG", KindILAN)
	if sp <= 0 {
		t.Fatalf("Speedup = %g", sp)
	}
	if mx.Speedup("CG", KindBaseline) != 1 {
		t.Fatalf("baseline self-speedup = %g, want 1", mx.Speedup("CG", KindBaseline))
	}
	if mx.OverheadRatio("CG", KindILAN) <= 0 {
		t.Fatal("OverheadRatio not positive")
	}
	if mx.Cell("CG", KindWorkSharing) != nil {
		t.Fatal("unexpected cell present")
	}
	if mx.Speedup("nope", KindILAN) != 0 {
		t.Fatal("missing bench speedup should be 0")
	}
}

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

func TestKindsFor(t *testing.T) {
	for _, exp := range []string{"fig2", "fig3", "fig4", "table1", "fig5", "fig6", "all"} {
		kinds, err := KindsFor(exp)
		if err != nil {
			t.Fatalf("KindsFor(%s): %v", exp, err)
		}
		if kinds[0] != KindBaseline {
			t.Fatalf("KindsFor(%s) does not start with baseline", exp)
		}
	}
	if _, err := KindsFor("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestReportsRender(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	kinds, _ := KindsFor("all")
	mx, err := Run(benches, kinds, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"fig2", "fig3", "fig4", "table1", "fig5", "fig6", "all"} {
		var buf bytes.Buffer
		if err := Report(&buf, exp, mx); err != nil {
			t.Fatalf("Report(%s): %v", exp, err)
		}
		out := buf.String()
		if !strings.Contains(out, "Matmul") {
			t.Fatalf("Report(%s) missing benchmark row:\n%s", exp, out)
		}
	}
	var buf bytes.Buffer
	if err := Report(&buf, "fig99", mx); err == nil {
		t.Fatal("unknown report accepted")
	}
}

func TestReportFailsOnMissingCells(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	mx, err := Run(benches, []Kind{KindBaseline}, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ReportFig2(&buf, mx); err == nil {
		t.Fatal("fig2 without ILAN cells should error")
	}
	if err := ReportFig4(&buf, mx); err == nil {
		t.Fatal("fig4 without no-mold cells should error")
	}
	if err := ReportFig6(&buf, mx); err == nil {
		t.Fatal("fig6 without worksharing cells should error")
	}
}

func TestProgressCallback(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	var calls []string
	_, err := Run(benches, []Kind{KindBaseline, KindILAN}, testConfig(),
		func(bench string, k Kind) { calls = append(calls, bench+"/"+k.String()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("progress called %d times, want 2", len(calls))
	}
}

func TestRenderChartAllExperiments(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	kinds, _ := KindsFor("all")
	mx, err := Run(benches, kinds, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "affinity", "counters", "all"} {
		var buf bytes.Buffer
		if err := RenderChart(&buf, exp, mx); err != nil {
			t.Fatalf("RenderChart(%s): %v", exp, err)
		}
		if !strings.Contains(buf.String(), "Matmul") {
			t.Fatalf("chart %s missing benchmark row", exp)
		}
	}
	var buf bytes.Buffer
	if err := RenderChart(&buf, "table1", mx); err == nil {
		t.Fatal("table1 chart should error")
	}
	if err := RenderChart(&buf, "nope", mx); err == nil {
		t.Fatal("unknown chart accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Reps != 30 {
		t.Errorf("Reps = %d, want 30 (paper methodology)", cfg.Reps)
	}
	if cfg.Class != workloads.ClassPaper {
		t.Error("Class != paper")
	}
	if !cfg.Noise.Enabled {
		t.Error("noise disabled in default config")
	}
	topo := cfg.Topo
	if topo.Sockets*topo.NodesPerSocket*topo.CoresPerNode != 64 {
		t.Error("default topology is not the 64-core platform")
	}
}

func TestKindFromStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildMatrixAndEachCell(t *testing.T) {
	cells := []*Cell{
		{Bench: "A", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 2}}},
		{Bench: "A", Kind: KindILAN, Samples: []RunSample{{ElapsedSec: 1}}},
		{Bench: "B", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 3}}},
	}
	mx := BuildMatrix(cells)
	if len(mx.Benches) != 2 || mx.Benches[0] != "A" || mx.Benches[1] != "B" {
		t.Fatalf("benches = %v", mx.Benches)
	}
	if sp := mx.Speedup("A", KindILAN); sp != 2 {
		t.Fatalf("speedup = %g, want 2", sp)
	}
	var visited []string
	mx.EachCell(func(c *Cell) { visited = append(visited, c.Bench+"/"+c.Kind.String()) })
	want := []string{"A/baseline", "A/ilan", "B/baseline"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestRunOneWithDisturbance(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	clean, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Disturb = &machine.Disturb{Node: 1}
	disturbed, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.ElapsedSec <= clean.ElapsedSec {
		t.Fatalf("disturbed run (%g) not slower than clean (%g)",
			disturbed.ElapsedSec, clean.ElapsedSec)
	}
	// The zero slowdown and load are machine.Build's defaults, 0.6 and 8.
	cfg.Disturb = &machine.Disturb{Node: 1, Slowdown: 0.6, MemLoad: 8}
	explicit, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, disturbed) {
		t.Fatalf("explicit 0.6/8 disturbance ran %+v, the default ran %+v", explicit, disturbed)
	}
}

func TestOverheadRatioMissingCells(t *testing.T) {
	mx := BuildMatrix([]*Cell{{Bench: "A", Kind: KindBaseline,
		Samples: []RunSample{{ElapsedSec: 1, OverheadSec: 0}}}})
	if r := mx.OverheadRatio("A", KindILAN); r != 0 {
		t.Fatalf("missing cell ratio = %g, want 0", r)
	}
	// Zero baseline overhead also yields 0.
	mx2 := BuildMatrix([]*Cell{
		{Bench: "A", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 1}}},
		{Bench: "A", Kind: KindILAN, Samples: []RunSample{{ElapsedSec: 1, OverheadSec: 1}}},
	})
	if r := mx2.OverheadRatio("A", KindILAN); r != 0 {
		t.Fatalf("zero-baseline ratio = %g, want 0", r)
	}
}

func TestOracleEfficiencyZeroILAN(t *testing.T) {
	r := &OracleResult{Best: OraclePoint{MeanSec: 1}}
	if r.Efficiency() != 0 {
		t.Fatal("zero ILAN time should give 0 efficiency")
	}
}
