package timeline

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

func traceOf(t *testing.T) (*taskrt.Trace, *taskrt.Runtime) {
	t.Helper()
	m := machine.Build(machine.Spec{Topo: topology.SmallTest()}, 1)
	rt := taskrt.New(m, &sched.Baseline{}, taskrt.DefaultCosts())
	tr := rt.EnableTracing()
	specs := []*taskrt.LoopSpec{
		{ID: 1, Name: "alpha", Iters: 32, Tasks: 16,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 20e-6 * float64(hi-lo), nil }},
		{ID: 2, Name: "beta", Iters: 32, Tasks: 16,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 10e-6 * float64(hi-lo), nil }},
	}
	prog := &taskrt.Program{Name: "p", Loops: specs, Sequence: []int{0, 1, 0, 1}}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return tr, rt
}

func TestRenderByCore(t *testing.T) {
	tr, rt := traceOf(t)
	var buf bytes.Buffer
	err := Render(&buf, tr, Options{Width: 60, Cores: rt.Topology().NumCores()})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core   0") || !strings.Contains(out, "core  15") {
		t.Fatalf("missing core rows:\n%s", out)
	}
	if !strings.Contains(out, "a=alpha") || !strings.Contains(out, "b=beta") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Both loops must appear in the body.
	body := out[:strings.Index(out, "legend")]
	if !strings.Contains(body, "a") || !strings.Contains(body, "b") {
		t.Fatalf("loop glyphs missing from body:\n%s", out)
	}
}

func TestRenderByNode(t *testing.T) {
	tr, rt := traceOf(t)
	var buf bytes.Buffer
	err := Render(&buf, tr, Options{
		Width: 40, ByNode: true,
		Cores: rt.Topology().NumCores(), Nodes: rt.Topology().NumNodes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for n := 0; n < rt.Topology().NumNodes(); n++ {
		if !strings.Contains(out, "node") {
			t.Fatalf("missing node rows:\n%s", out)
		}
	}
	if !strings.ContainsAny(out, "#o:.") {
		t.Fatalf("no occupancy shading:\n%s", out)
	}
}

func TestRenderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, nil, Options{Cores: 4}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if err := Render(&buf, &taskrt.Trace{}, Options{Cores: 4}); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr, _ := traceOf(t)
	if err := Render(&buf, tr, Options{}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if err := Render(&buf, tr, Options{Cores: 4, ByNode: true}); err == nil {
		t.Fatal("ByNode without Nodes accepted")
	}
}

func TestRenderTimeWindow(t *testing.T) {
	tr, rt := traceOf(t)
	// Find the full span, then render only the first half.
	var hi float64
	for _, ev := range tr.Tasks {
		if ev.EndSec > hi {
			hi = ev.EndSec
		}
	}
	var buf bytes.Buffer
	err := Render(&buf, tr, Options{
		Width: 30, Cores: rt.Topology().NumCores(),
		From: 0, To: hi / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "timeline") {
		t.Fatal("header missing")
	}
}

func TestRenderWindowClamping(t *testing.T) {
	tr, rt := traceOf(t)
	lo, hi := tr.Tasks[0].StartSec, tr.Tasks[0].EndSec
	for _, ev := range tr.Tasks {
		if ev.StartSec < lo {
			lo = ev.StartSec
		}
		if ev.EndSec > hi {
			hi = ev.EndSec
		}
	}
	cores := rt.Topology().NumCores()
	tests := []struct {
		name     string
		from, to float64
		width    int
		wantErr  bool
	}{
		{name: "spans trace when both zero", from: 0, to: 0, width: 30},
		{name: "from before trace clamps", from: -1, to: hi, width: 30},
		{name: "to past trace clamps", from: lo, to: hi * 10, width: 30},
		{name: "both outside clamp to full span", from: -1, to: hi * 10, width: 30},
		{name: "interior window", from: lo + (hi-lo)/4, to: hi - (hi-lo)/4, width: 30},
		{name: "single bucket", from: lo, to: hi, width: 1},
		{name: "single bucket clamped", from: -1, to: hi * 2, width: 1},
		{name: "empty window", from: hi / 2, to: hi / 2, wantErr: true},
		{name: "inverted window", from: hi, to: lo, wantErr: true},
		{name: "window after trace", from: hi + 1, to: hi + 2, wantErr: true},
		{name: "window before trace", from: -2, to: -1, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := Render(&buf, tr, Options{Width: tc.width, Cores: cores, From: tc.from, To: tc.to})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("window [%g, %g) accepted; output:\n%s", tc.from, tc.to, buf.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("window [%g, %g): %v", tc.from, tc.to, err)
			}
			// A clamped window must still render a non-blank chart.
			body := buf.String()
			if i := strings.Index(body, "legend"); i >= 0 {
				body = body[:i]
			}
			if !strings.ContainsAny(body, "ab") {
				t.Fatalf("window [%g, %g) rendered a blank chart:\n%s", tc.from, tc.to, buf.String())
			}
		})
	}
}

func TestGlyphsStable(t *testing.T) {
	if glyphFor(1) != 'a' || glyphFor(2) != 'b' {
		t.Fatal("glyph mapping changed")
	}
	if densityGlyph(0) != ' ' || densityGlyph(1) != '#' {
		t.Fatal("density glyphs wrong")
	}
}
