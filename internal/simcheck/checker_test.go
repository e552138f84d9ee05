package simcheck

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// checkerTopo: 2 sockets x 2 nodes x 4 cores = 4 nodes, 16 cores.
func checkerTopoSpec() topology.Spec {
	return topology.Spec{
		Sockets:             2,
		NodesPerSocket:      2,
		CoresPerNode:        4,
		CoresPerCCD:         4,
		L3BytesPerCCD:       8 << 20,
		SameSocketDistance:  1.2,
		CrossSocketDistance: 2.0,
	}
}

// newTestChecker builds a runtime on the test topology and attaches a
// fresh checker, for driving the probe hooks directly.
func newTestChecker(t *testing.T) (*taskrt.Runtime, *Checker) {
	t.Helper()
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(checkerTopoSpec()),
		Seed:  1,
		Alpha: -1,
	})
	rt := taskrt.New(m, &renumberPlanSched{}, taskrt.DefaultCosts())
	return rt, Attach(rt)
}

func testSpec(iters, tasks int) *taskrt.LoopSpec {
	return &taskrt.LoopSpec{
		ID: 1, Name: "L", Iters: iters, Tasks: tasks,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 1e-6 * float64(hi-lo), nil
		},
	}
}

// testPlan places each of the spec's tasks on consecutive cores of node 0.
// The active set also spans nodes 1 and 2 so steal/pinning tests can drive
// probe events from cores the plan owns (the checker attributes every
// event to the execution holding its core).
func testPlan(spec *taskrt.LoopSpec) *taskrt.Plan {
	p := &taskrt.Plan{Active: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, Mode: taskrt.StealHierarchical}
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, taskrt.TaskPlacement{Lo: lo, Hi: hi, Core: t % 4})
	}
	return p
}

func hasViolation(c *Checker, invariant string) bool {
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func TestAttachInstallsProbe(t *testing.T) {
	rt, ck := newTestChecker(t)
	if rt.AttachedProbe() != taskrt.Probe(ck) {
		t.Fatalf("Attach did not install the checker as the runtime probe")
	}
}

func TestCheckerCleanDirectSequence(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	plan := testPlan(spec)
	ck.LoopStart(spec, plan)
	tasks := make([]*taskrt.Task, 4)
	for i := range tasks {
		tasks[i] = &taskrt.Task{Lo: i, Hi: i + 1, Home: 0}
		ck.TaskStart(i, tasks[i])
		ck.TaskDone(i, tasks[i])
	}
	ck.LoopDone(spec, plan, &taskrt.LoopStats{NodeTasks: []int{4, 0, 0, 0}})
	if err := ck.Err(); err != nil {
		t.Fatalf("clean sequence reported violations: %v", err)
	}
	loops, nTasks, steals := ck.Stats()
	if loops != 1 || nTasks != 4 || steals != 0 {
		t.Fatalf("Stats() = (%d,%d,%d), want (1,4,0)", loops, nTasks, steals)
	}
}

func TestCheckerPlanRevalidation(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	// A plan no scheduler should emit: empty active set.
	ck.LoopStart(spec, &taskrt.Plan{})
	if !hasViolation(ck, "plan-valid") {
		t.Fatalf("invalid plan not flagged; violations: %v", ck.Violations())
	}
}

func TestCheckerStrictPinning(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	ck.LoopStart(spec, testPlan(spec))
	// Strict task homed on node 0 starting on core 8 (node 2).
	ck.TaskStart(8, &taskrt.Task{Lo: 0, Hi: 1, Strict: true, Home: 0})
	if !hasViolation(ck, "strict-pinning") {
		t.Fatalf("off-home strict execution not flagged; violations: %v", ck.Violations())
	}
	// A strict task on its home node is fine.
	_, ck2 := newTestChecker(t)
	ck2.LoopStart(spec, testPlan(spec))
	ck2.TaskStart(1, &taskrt.Task{Lo: 0, Hi: 1, Strict: true, Home: 0})
	if hasViolation(ck2, "strict-pinning") {
		t.Fatalf("on-home strict execution wrongly flagged")
	}
}

func TestCheckerTaskOnce(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	ck.LoopStart(spec, testPlan(spec))
	task := &taskrt.Task{Lo: 0, Hi: 1}
	ck.TaskStart(0, task)
	ck.TaskStart(1, task)
	if !hasViolation(ck, "task-once") {
		t.Fatalf("double start not flagged")
	}

	_, ck2 := newTestChecker(t)
	ck2.LoopStart(spec, testPlan(spec))
	ck2.TaskDone(0, &taskrt.Task{Lo: 0, Hi: 1})
	if !hasViolation(ck2, "task-once") {
		t.Fatalf("completion without start not flagged")
	}
}

func TestCheckerStealInvariants(t *testing.T) {
	spec := testSpec(8, 8)

	t.Run("mode-off", func(t *testing.T) {
		_, ck := newTestChecker(t)
		plan := testPlan(spec)
		plan.Mode = taskrt.StealOff
		ck.LoopStart(spec, plan)
		ck.Steal(1, 0, &taskrt.Task{Lo: 0, Hi: 1}, false, true)
		if !hasViolation(ck, "steal-mode") {
			t.Fatalf("steal under StealOff not flagged")
		}
	})

	t.Run("remote-flag", func(t *testing.T) {
		_, ck := newTestChecker(t)
		ck.LoopStart(spec, testPlan(spec))
		// Cores 0 and 1 share node 0, yet the steal claims remote.
		ck.Steal(1, 0, &taskrt.Task{Lo: 0, Hi: 1}, true, true)
		if !hasViolation(ck, "steal-remote-flag") {
			t.Fatalf("wrong remote flag not flagged")
		}
	})

	t.Run("strict-no-cross", func(t *testing.T) {
		_, ck := newTestChecker(t)
		plan := testPlan(spec)
		plan.Mode = taskrt.StealFlat
		ck.LoopStart(spec, plan)
		// Core 4 is on node 1; the task is strict with home 0.
		ck.Steal(4, 0, &taskrt.Task{Lo: 0, Hi: 1, Strict: true, Home: 0}, true, true)
		if !hasViolation(ck, "strict-no-cross") {
			t.Fatalf("cross-node strict steal not flagged")
		}
	})

	t.Run("steal-policy", func(t *testing.T) {
		_, ck := newTestChecker(t)
		plan := testPlan(spec)
		plan.Mode = taskrt.StealHierarchical
		plan.InterNodeSteal = false
		ck.LoopStart(spec, plan)
		ck.Steal(4, 0, &taskrt.Task{Lo: 0, Hi: 1}, true, true)
		if !hasViolation(ck, "steal-policy") {
			t.Fatalf("inter-node steal under steal_policy=strict not flagged")
		}
	})

	t.Run("legal-remote-steal", func(t *testing.T) {
		_, ck := newTestChecker(t)
		plan := testPlan(spec)
		plan.InterNodeSteal = true
		ck.LoopStart(spec, plan)
		// Thief node 1's deques are all empty on a fresh runtime, so the
		// full-drain precondition holds.
		ck.Steal(4, 0, &taskrt.Task{Lo: 0, Hi: 1}, true, true)
		if err := ck.Err(); err != nil {
			t.Fatalf("legal inter-node steal flagged: %v", err)
		}
	})
}

func TestCheckerTaskConservation(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	plan := testPlan(spec)
	ck.LoopStart(spec, plan)
	// Barrier reached with none of the four released tasks executed.
	ck.LoopDone(spec, plan, &taskrt.LoopStats{NodeTasks: make([]int, 4)})
	if !hasViolation(ck, "task-conservation") {
		t.Fatalf("lost tasks not flagged")
	}
	if !hasViolation(ck, "stats-conservation") {
		t.Fatalf("NodeTasks undercount not flagged")
	}
}

func TestCheckerInFlightAtBarrier(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	plan := testPlan(spec)
	ck.LoopStart(spec, plan)
	for i := 0; i < 4; i++ {
		task := &taskrt.Task{Lo: i, Hi: i + 1}
		ck.TaskStart(i, task)
		if i != 3 {
			ck.TaskDone(i, task) // task 3 never completes
		}
	}
	ck.LoopDone(spec, plan, &taskrt.LoopStats{NodeTasks: []int{4, 0, 0, 0}})
	if !hasViolation(ck, "task-conservation") {
		t.Fatalf("in-flight task at barrier not flagged")
	}
}

func TestCheckerTimeMonotonic(t *testing.T) {
	_, ck := newTestChecker(t)
	ck.lastTime = 1 // as if a probe event had been observed at t=1
	ck.LoopStart(testSpec(4, 4), testPlan(testSpec(4, 4)))
	if !hasViolation(ck, "time-monotonic") {
		t.Fatalf("backwards virtual time not flagged")
	}
}

func TestCheckerErrTruncation(t *testing.T) {
	_, ck := newTestChecker(t)
	spec := testSpec(4, 4)
	ck.LoopStart(spec, testPlan(spec))
	for i := 0; i < maxViolations+10; i++ {
		ck.TaskDone(0, &taskrt.Task{Lo: 0, Hi: 1}) // never started: task-once
	}
	err := ck.Err()
	if err == nil {
		t.Fatalf("no error from %d violations", maxViolations+10)
	}
	if len(ck.Violations()) != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", len(ck.Violations()), maxViolations)
	}
	if !strings.Contains(err.Error(), "not shown") {
		t.Fatalf("error does not mention truncation:\n%s", err)
	}
}

// TestCheckerDoesNotPerturbRun: a checked run and an unchecked run of the
// same scenario produce byte-identical digests — the probe is observation
// only. Scenario.Run always attaches; compare against a manual unchecked
// execution.
func TestCheckerDoesNotPerturbRun(t *testing.T) {
	sc := Scenario{
		Spec:  checkerTopoSpec(),
		Seed:  42,
		Sched: SchedGen{Kind: 1}, // a stealing scheduler
		Loops: []LoopGen{{Iters: 32, Tasks: 16, ComputePerIter: 1e-6, Imbalance: 0.5, StreamBytes: 4096}},
		Steps: 2,
	}
	checked := sc.Run()
	if checked.Err != nil || checked.Check != nil {
		t.Fatalf("checked run failed: err=%v check=%v", checked.Err, checked.Check)
	}

	m := machine.New(machine.Config{
		Topo: topology.MustNew(sc.Spec), Seed: sc.Seed, Alpha: -1,
	})
	m.Engine().SetLimit(eventLimit)
	rt := taskrt.New(m, sc.scheduler(), taskrt.DefaultCosts())
	res, err := rt.RunProgram(sc.BuildProgram(m))
	if err != nil {
		t.Fatalf("unchecked run failed: %v", err)
	}
	if rt.AttachedProbe() != nil {
		t.Fatalf("unchecked runtime unexpectedly has a probe")
	}
	unchecked := fmt.Sprintf("%x|%x|%d|%d|%d|%d|%x",
		float64(res.Elapsed), res.OverheadSec, res.LoopExecutions,
		res.TasksExecuted, res.StealsLocal, res.StealsRemote,
		res.WeightedAvgThreads)
	if unchecked != checked.Digest {
		t.Fatalf("checker perturbed the run: unchecked %s vs checked %s", unchecked, checked.Digest)
	}
}
