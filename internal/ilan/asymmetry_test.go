package ilan

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestNodeMaskAvoidsDisturbedNode exercises the paper's node_mask purpose
// end-to-end: with an external interferer parked on one NUMA node, a
// molded taskloop's mask must exclude that node (the PTT sees it as slow,
// and GetNUMAMask starts from the fastest node).
func TestNodeMaskAvoidsDisturbedNode(t *testing.T) {
	const victim = 2
	m := machine.Build(machine.Spec{Topo: topology.SmallTest(), ControllerBW: 20e9,
		Disturb: &machine.Disturb{Node: victim, Slowdown: 0.5, MemLoad: 10}}, 3)
	s := MustNew(DefaultOptions())
	rt := taskrt.New(m, s, taskrt.DefaultCosts())
	loop := gatherLoop(rt)
	prog := &taskrt.Program{Name: "g", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(30, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	cfg, phase, _ := s.ChosenConfig(loop.ID)
	if phase != PhaseSettled {
		t.Fatalf("not settled: %v", phase)
	}
	if cfg.Threads >= rt.Topology().NumCores() {
		t.Skip("loop did not mold; mask avoidance not applicable")
	}
	for _, n := range cfg.Nodes {
		if n == victim {
			t.Fatalf("mask %v includes the disturbed node %d", cfg.Nodes, victim)
		}
	}
}

// TestDisturbedNodeMeasuresSlower sanity-checks the PTT's raw signal: the
// disturbed node's historical mean task time must exceed the others'.
func TestDisturbedNodeMeasuresSlower(t *testing.T) {
	const victim = 1
	m := machine.Build(machine.Spec{Topo: topology.SmallTest(),
		Disturb: &machine.Disturb{Node: victim, Slowdown: 0.5, MemLoad: 6}}, 4)
	s := MustNew(DefaultOptions())
	rt := taskrt.New(m, s, taskrt.DefaultCosts())
	loop := computeLoop()
	prog := &taskrt.Program{Name: "c", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(6, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	ls := s.loops[loop.ID]
	slow := ls.meanNodeSec(victim)
	for n := 0; n < rt.Topology().NumNodes(); n++ {
		if n != victim && ls.meanNodeSec(n) >= slow {
			t.Fatalf("node %d (%g) not faster than disturbed node %d (%g)",
				n, ls.meanNodeSec(n), victim, slow)
		}
	}
}
