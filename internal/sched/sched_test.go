package sched

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

func newRT(t *testing.T, s taskrt.Scheduler) *taskrt.Runtime {
	t.Helper()
	m := machine.Build(machine.Spec{Topo: topology.SmallTest()}, 1)
	return taskrt.New(m, s, taskrt.DefaultCosts())
}

func balancedLoop(id int) *taskrt.LoopSpec {
	return &taskrt.LoopSpec{
		ID: id, Name: "balanced", Iters: 64, Tasks: 32,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 10e-6 * float64(hi-lo), nil
		},
	}
}

func imbalancedLoop(id int) *taskrt.LoopSpec {
	return &taskrt.LoopSpec{
		ID: id, Name: "imbalanced", Iters: 64, Tasks: 32,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			w := 10e-6 * float64(hi-lo)
			if lo < 8 {
				w *= 10
			}
			return w, nil
		},
	}
}

func TestBaselinePlanShape(t *testing.T) {
	b := &Baseline{}
	rt := newRT(t, b)
	spec := balancedLoop(1)
	plan := b.Plan(rt, spec, nil)
	if err := plan.Validate(spec, rt.Topology().NumCores(), nil); err != nil {
		t.Fatal(err)
	}
	if len(plan.Active) != 16 {
		t.Fatalf("baseline active %d cores, want all 16", len(plan.Active))
	}
	for i, tp := range plan.Place {
		if tp.Core != 0 {
			t.Fatalf("task %d on core %d, want master 0", i, tp.Core)
		}
		if tp.Strict {
			t.Fatalf("baseline task %d strict", i)
		}
	}
	if plan.Mode != taskrt.StealFlat {
		t.Fatalf("baseline mode %v, want flat", plan.Mode)
	}
	if b.Name() != "baseline" {
		t.Fatalf("Name = %q", b.Name())
	}
}

func TestWorkSharingPlanShape(t *testing.T) {
	w := &WorkSharing{}
	rt := newRT(t, w)
	spec := balancedLoop(1)
	plan := w.Plan(rt, spec, nil)
	if err := plan.Validate(spec, rt.Topology().NumCores(), nil); err != nil {
		t.Fatal(err)
	}
	if len(plan.Place) != 16 {
		t.Fatalf("work-sharing created %d chunks, want one per core", len(plan.Place))
	}
	for i, tp := range plan.Place {
		if tp.Core != i {
			t.Fatalf("chunk %d on core %d, want static binding", i, tp.Core)
		}
	}
	if plan.Mode != taskrt.StealOff {
		t.Fatalf("mode %v, want off", plan.Mode)
	}
	if w.Name() != "worksharing" {
		t.Fatalf("Name = %q", w.Name())
	}
}

func TestWorkSharingFewIterations(t *testing.T) {
	w := &WorkSharing{}
	rt := newRT(t, w)
	spec := &taskrt.LoopSpec{ID: 1, Name: "tiny", Iters: 3, Tasks: 3,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 1e-6, nil }}
	plan := w.Plan(rt, spec, nil)
	if err := plan.Validate(spec, rt.Topology().NumCores(), nil); err != nil {
		t.Fatal(err)
	}
	if len(plan.Active) != 3 {
		t.Fatalf("active = %d, want 3 (one per iteration)", len(plan.Active))
	}
}

func TestBaselineBeatsWorkSharingOnImbalance(t *testing.T) {
	run := func(s taskrt.Scheduler) float64 {
		rt := newRT(t, s)
		prog := &taskrt.Program{Name: "i", Loops: []*taskrt.LoopSpec{imbalancedLoop(1)},
			Sequence: []int{0, 0, 0}}
		res, err := rt.RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	tasking := run(&Baseline{})
	static := run(&WorkSharing{})
	if tasking >= static {
		t.Fatalf("dynamic tasking (%g) not faster than static work-sharing (%g) on imbalanced loop",
			tasking, static)
	}
}

func TestWorkSharingBeatsBaselineOnBalancedOverhead(t *testing.T) {
	// A balanced loop with many small tasks: static scheduling avoids all
	// task-management overhead and random placement.
	spec := &taskrt.LoopSpec{
		ID: 1, Name: "balanced-fine", Iters: 256, Tasks: 256,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 2e-6 * float64(hi-lo), nil
		},
	}
	run := func(s taskrt.Scheduler) float64 {
		rt := newRT(t, s)
		prog := &taskrt.Program{Name: "b", Loops: []*taskrt.LoopSpec{spec}, Sequence: []int{0, 0, 0}}
		res, err := rt.RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	static := run(&WorkSharing{})
	tasking := run(&Baseline{})
	if static >= tasking {
		t.Fatalf("work-sharing (%g) not faster than tasking (%g) on balanced fine-grain loop",
			static, tasking)
	}
}

func TestBaselineObserveIsNoop(t *testing.T) {
	b := &Baseline{}
	w := &WorkSharing{}
	b.Observe(nil, nil, nil)
	w.Observe(nil, nil, nil)
}
