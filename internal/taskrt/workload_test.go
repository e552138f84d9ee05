package taskrt

import (
	"strings"
	"testing"
)

// seqProgram builds a program of nLoops distinct loops cycled for steps
// sequence entries, with loop IDs starting at idBase.
func seqProgram(name string, idBase, nLoops, steps int) *Program {
	p := &Program{Name: name}
	for i := 0; i < nLoops; i++ {
		p.Loops = append(p.Loops, computeLoop(idBase+i, 64, 16, 1e-6))
	}
	for s := 0; s < steps; s++ {
		p.Sequence = append(p.Sequence, s%nLoops)
	}
	return p
}

// planOn places a loop's tasks round-robin over exactly the given cores.
func planOn(cores []int, spec *LoopSpec) *Plan {
	p := &Plan{Active: cores, Place: make([]TaskPlacement, 0, spec.Tasks), Mode: StealFlat}
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: cores[t%len(cores)]})
	}
	return p
}

func TestWorkloadValidate(t *testing.T) {
	good := func() *Workload {
		return &Workload{
			Name: "w",
			Programs: []*Program{
				seqProgram("a", 1, 2, 3),
				seqProgram("b", 1001, 2, 3),
			},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Workload) *Workload
		want string
	}{
		{"nil workload", func(*Workload) *Workload { return nil }, "nil workload"},
		{"no programs", func(w *Workload) *Workload { w.Programs = nil; return w }, "no programs"},
		{"negative spread", func(w *Workload) *Workload { w.ArrivalSpreadSec = -1; return w }, "finite non-negative"},
		{"invalid program", func(w *Workload) *Workload { w.Programs[0].Sequence = nil; return w }, "is empty"},
		{"unnamed program", func(w *Workload) *Workload { w.Programs[1].Name = ""; return w }, "unnamed program"},
		{"duplicate name", func(w *Workload) *Workload { w.Programs[1].Name = "a"; return w }, "reuses program name"},
		{"duplicate loop ID", func(w *Workload) *Workload {
			w.Programs[1].Loops[0].ID = w.Programs[0].Loops[0].ID
			return w
		}, "appears in both"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.mut(good()).Validate()
			if err == nil {
				t.Fatal("invalid workload accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestProgramValidateDeadLoops(t *testing.T) {
	cases := []struct {
		name     string
		sequence []int
		nLoops   int
		wantErr  bool
	}{
		{"all referenced", []int{0, 1, 0, 1}, 2, false},
		{"single loop", []int{0}, 1, false},
		{"dead second loop", []int{0, 0}, 2, true},
		{"dead first loop", []int{1}, 2, true},
		{"dead middle loop", []int{0, 2}, 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Program{Name: "p"}
			for i := 0; i < c.nLoops; i++ {
				p.Loops = append(p.Loops, computeLoop(i+1, 8, 4, 1e-6))
			}
			p.Sequence = c.sequence
			err := p.Validate()
			if c.wantErr {
				if err == nil {
					t.Fatal("program with dead loop accepted")
				}
				if !strings.Contains(err.Error(), "never references") {
					t.Fatalf("error %q does not name the dead loop", err)
				}
			} else if err != nil {
				t.Fatalf("valid program rejected: %v", err)
			}
		})
	}
}

// TestRunWorkloadSoloDegenerate pins the degenerate case: a one-program
// workload behaves exactly like RunProgram on a fresh, identically seeded
// runtime.
func TestRunWorkloadSoloDegenerate(t *testing.T) {
	rtSolo := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	solo, err := rtSolo.RunProgram(seqProgram("p", 1, 3, 9))
	if err != nil {
		t.Fatal(err)
	}

	rtW := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	res, err := rtW.RunWorkload(&Workload{Name: "w", Programs: []*Program{seqProgram("p", 1, 3, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Programs) != 1 {
		t.Fatalf("got %d program results, want 1", len(res.Programs))
	}
	pr := res.Programs[0]
	if res.Elapsed != solo.Elapsed {
		t.Errorf("workload elapsed %v != solo elapsed %v", res.Elapsed, solo.Elapsed)
	}
	if pr.MakespanSec != float64(solo.Elapsed) {
		t.Errorf("makespan %v != solo elapsed %v", pr.MakespanSec, solo.Elapsed)
	}
	if pr.ArrivalSec != 0 || pr.StartSec != 0 {
		t.Errorf("zero-spread arrival/start = %v/%v, want 0/0", pr.ArrivalSec, pr.StartSec)
	}
	if pr.LoopExecutions != solo.LoopExecutions {
		t.Errorf("loop executions %d != solo %d", pr.LoopExecutions, solo.LoopExecutions)
	}
	if pr.TasksExecuted != solo.TasksExecuted {
		t.Errorf("tasks %d != solo %d", pr.TasksExecuted, solo.TasksExecuted)
	}
	if pr.WeightedAvgThreads != solo.WeightedAvgThreads {
		t.Errorf("weighted threads %v != solo %v", pr.WeightedAvgThreads, solo.WeightedAvgThreads)
	}
	// A zero-delay arrival is admitted synchronously: no arrival event.
	if got, want := rtW.Machine().Engine().Processed(), rtSolo.Machine().Engine().Processed(); got != want {
		t.Errorf("workload fired %d events, solo %d", got, want)
	}
}

// TestRunWorkloadLeavesProgramTagsAlone pins that program tagging belongs
// to the builders that assemble co-runs: RunWorkload itself never writes
// LoopSpec.Program, so a hand-built one-program workload stays untagged
// (and its trace a single process), while pre-tagged loops keep their tag.
func TestRunWorkloadLeavesProgramTagsAlone(t *testing.T) {
	rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	tr := rt.EnableTracing()
	p := seqProgram("p", 1, 2, 4)
	if _, err := rt.RunWorkload(&Workload{Name: "w", Programs: []*Program{p}}); err != nil {
		t.Fatal(err)
	}
	for _, l := range p.Loops {
		if l.Program != "" {
			t.Fatalf("loop %d tagged %q by RunWorkload", l.ID, l.Program)
		}
	}
	for _, ev := range tr.Tasks {
		if ev.Program != "" {
			t.Fatalf("task event tagged %q in an untagged workload", ev.Program)
		}
	}

	rt = newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	q := seqProgram("q", 1, 2, 4)
	for _, l := range q.Loops {
		l.Program = "tagged"
	}
	if _, err := rt.RunWorkload(&Workload{Name: "w", Programs: []*Program{q}}); err != nil {
		t.Fatal(err)
	}
	for _, l := range q.Loops {
		if l.Program != "tagged" {
			t.Fatalf("loop %d tag rewritten to %q", l.ID, l.Program)
		}
	}
}

// TestRunProgramUnnamed: a lone program needs no name (nothing is keyed or
// tagged by it), so RunProgram accepts an unnamed one.
func TestRunProgramUnnamed(t *testing.T) {
	rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	p := seqProgram("", 1, 2, 4)
	res, err := rt.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopExecutions != 4 {
		t.Fatalf("loop executions = %d, want 4", res.LoopExecutions)
	}
	if _, err := rt.RunProgram(nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

// TestRunWorkloadConcurrentPrograms drives two programs through a
// scheduler that gives each a disjoint half of the machine and checks they
// genuinely overlap in virtual time.
func TestRunWorkloadConcurrentPrograms(t *testing.T) {
	half := func(rt *Runtime, spec *LoopSpec) *Plan {
		n := rt.Topology().NumCores()
		if spec.ID >= 1000 {
			return planOn(allCores(n)[n/2:], spec)
		}
		return planOn(allCores(n)[:n/2], spec)
	}
	rt := newTestRuntime(t, &planScheduler{name: "half", plan: half})
	w := &Workload{Name: "w", Programs: []*Program{
		seqProgram("a", 1, 2, 6),
		seqProgram("b", 1001, 2, 6),
	}}
	res, err := rt.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Programs[0], res.Programs[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("results out of submission order: %q, %q", a.Name, b.Name)
	}
	// Both arrive at t=0 and the machine has room for both halves, so both
	// must start immediately — concurrent, not serialized.
	if a.StartSec != 0 || b.StartSec != 0 {
		t.Fatalf("co-runners did not start together: a=%v b=%v", a.StartSec, b.StartSec)
	}
	if got, want := float64(res.Elapsed), a.MakespanSec+b.MakespanSec; got >= want {
		t.Fatalf("elapsed %v shows no overlap (sum of makespans %v)", got, want)
	}
	if a.TasksExecuted == 0 || b.TasksExecuted == 0 {
		t.Fatalf("a program executed no tasks: a=%d b=%d", a.TasksExecuted, b.TasksExecuted)
	}
}

// TestRunWorkloadFIFOAdmission pins the head-of-line-blocking contract:
// under an all-cores scheduler the second program cannot start until the
// first fully finishes.
func TestRunWorkloadFIFOAdmission(t *testing.T) {
	rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	w := &Workload{Name: "w", Programs: []*Program{
		seqProgram("a", 1, 2, 4),
		seqProgram("b", 1001, 2, 4),
	}}
	res, err := rt.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Programs[0], res.Programs[1]
	if b.StartSec < a.EndSec {
		t.Fatalf("second program started at %v before first ended at %v", b.StartSec, a.EndSec)
	}
	// b queued from t=0, so its makespan includes a's whole run.
	if b.MakespanSec <= a.MakespanSec {
		t.Fatalf("queued program's makespan %v not larger than head's %v", b.MakespanSec, a.MakespanSec)
	}
}

// TestRunWorkloadArrivalSpreadDeterministic checks staggered arrivals are
// in range and reproducible run to run.
func TestRunWorkloadArrivalSpreadDeterministic(t *testing.T) {
	const spread = 0.01
	run := func() *WorkloadResult {
		rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
		res, err := rt.RunWorkload(&Workload{
			Name: "w",
			Programs: []*Program{
				seqProgram("a", 1, 2, 3),
				seqProgram("b", 1001, 2, 3),
				seqProgram("c", 2001, 2, 3),
			},
			ArrivalSpreadSec: spread,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed differs across identically seeded runs: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	for i := range r1.Programs {
		p1, p2 := r1.Programs[i], r2.Programs[i]
		if p1 != p2 {
			t.Fatalf("program %d result differs across runs:\n%+v\n%+v", i, p1, p2)
		}
		if p1.ArrivalSec < 0 || p1.ArrivalSec >= spread {
			t.Fatalf("program %q arrival %v outside [0, %v)", p1.Name, p1.ArrivalSec, spread)
		}
		if p1.StartSec < p1.ArrivalSec {
			t.Fatalf("program %q started at %v before arriving at %v", p1.Name, p1.StartSec, p1.ArrivalSec)
		}
	}
}

// TestRunWorkloadBusy pins the re-entrancy errors: neither RunWorkload nor
// RunProgram may start while a loop is already in flight.
func TestRunWorkloadBusy(t *testing.T) {
	rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	rt.SubmitLoop(computeLoop(1, 8, 4, 1e-6), func(*LoopStats) {})

	if _, err := rt.RunWorkload(&Workload{Name: "w", Programs: []*Program{seqProgram("p", 100, 1, 1)}}); err == nil {
		t.Fatal("RunWorkload on a busy runtime accepted")
	} else if !strings.Contains(err.Error(), "while a loop is in flight") {
		t.Fatalf("unexpected busy error: %v", err)
	}
	if _, err := rt.RunProgram(seqProgram("p", 100, 1, 1)); err == nil {
		t.Fatal("RunProgram on a busy runtime accepted")
	} else if !strings.Contains(err.Error(), "while a loop is in flight") {
		t.Fatalf("unexpected busy error: %v", err)
	}
}

// TestSubmitLoopOverlapPanics pins the core-disjointness invariant at the
// submission boundary: a second in-flight plan claiming a held core panics
// at plan validation, while a disjoint plan is admitted.
func TestSubmitLoopOverlapPanics(t *testing.T) {
	plans := map[int][]int{
		1: {0, 1, 2, 3},
		2: {2, 3, 4, 5}, // overlaps loop 1's cores 2,3
		3: {4, 5, 6, 7}, // disjoint from loop 1
	}
	sch := &planScheduler{name: "fixed", plan: func(_ *Runtime, spec *LoopSpec) *Plan {
		return planOn(plans[spec.ID], spec)
	}}
	rt := newTestRuntime(t, sch)
	rt.SubmitLoop(computeLoop(1, 8, 4, 1e-6), func(*LoopStats) {})

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("overlapping plan did not panic")
			}
			err, ok := r.(error)
			if !ok || !strings.Contains(err.Error(), "concurrently live loop holds") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		rt.SubmitLoop(computeLoop(2, 8, 4, 1e-6), func(*LoopStats) {})
	}()

	rt.SubmitLoop(computeLoop(3, 8, 4, 1e-6), func(*LoopStats) {})
	if got := rt.InFlight(); got != 2 {
		t.Fatalf("in-flight executions = %d, want 2 (the disjoint pair)", got)
	}
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedTasksOutOfRange(t *testing.T) {
	rt := newTestRuntime(t, &planScheduler{name: "spread", plan: spreadPlan})
	for _, core := range []int{-1, -1000, rt.Topology().NumCores(), 1 << 20} {
		if got := rt.QueuedTasks(core); got != 0 {
			t.Errorf("QueuedTasks(%d) = %d, want 0", core, got)
		}
	}
}

// TestRunProgramDeepSequence is the regression test for the iterative
// sequence cursor: a 50 000-step program must complete without growing the
// native stack with the sequence length (the old recursive continuation
// overflowed here).
func TestRunProgramDeepSequence(t *testing.T) {
	const steps = 50000
	solo := func(_ *Runtime, spec *LoopSpec) *Plan {
		return &Plan{
			Active: []int{0},
			Place:  []TaskPlacement{{Lo: 0, Hi: spec.Iters, Core: 0}},
			Mode:   StealOff,
		}
	}
	rt := newTestRuntime(t, &planScheduler{name: "solo", plan: solo})
	p := &Program{Name: "deep", Loops: []*LoopSpec{computeLoop(1, 1, 1, 1e-9)}}
	for i := 0; i < steps; i++ {
		p.Sequence = append(p.Sequence, 0)
	}
	res, err := rt.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopExecutions != steps {
		t.Fatalf("loop executions = %d, want %d", res.LoopExecutions, steps)
	}
	if res.TasksExecuted != steps {
		t.Fatalf("tasks executed = %d, want %d", res.TasksExecuted, steps)
	}
}
