package taskrt

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// silentScheduler is a fixed-plan scheduler whose Observe allocates
// nothing, so allocation measurements see only the runtime's own work.
type silentScheduler struct {
	plan func(rt *Runtime, spec *LoopSpec) *Plan
}

func (s *silentScheduler) Name() string                                      { return "silent" }
func (s *silentScheduler) Plan(rt *Runtime, l *LoopSpec, _ *Occupancy) *Plan { return s.plan(rt, l) }
func (s *silentScheduler) Observe(*Runtime, *LoopSpec, *LoopStats)           {}

// loopAllocs measures the average allocations of one full loop execution
// (submission through barrier) on a warmed runtime.
func loopAllocs(t *testing.T, plan func(*Runtime, *LoopSpec) *Plan, spec *LoopSpec) float64 {
	t.Helper()
	rt := newTestRuntime(t, &silentScheduler{plan: plan})
	eng := rt.Machine().Engine()
	return testing.AllocsPerRun(8, func() {
		rt.SubmitLoop(spec, nil)
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
}

// TestDispatchAllocsAreZero pins the dispatch/steal hot path at zero
// allocations per task: quadrupling the task count must not change the
// per-loop allocation count at all — every allocation left is loop-scoped
// (plan, stats, counters), not dispatch-scoped. Task execution closures
// (the workload's Demand) are excluded by construction: the compute-only
// demand function allocates nothing.
func TestDispatchAllocsAreZero(t *testing.T) {
	small := loopAllocs(t, spreadPlan, computeLoop(1, 256, 256, 1e-8))
	big := loopAllocs(t, spreadPlan, computeLoop(1, 1024, 1024, 1e-8))
	t.Logf("per-loop allocs: 256 tasks = %g, 1024 tasks = %g", small, big)
	if big != small {
		t.Fatalf("per-loop allocs grew with task count: 256 tasks = %g, 1024 tasks = %g "+
			"(dispatch path must allocate 0 per task)", small, big)
	}
	if small > 50 {
		t.Fatalf("per-loop constant allocs = %g, want a small constant (< 50)", small)
	}
}

// TestStealPathAllocsAreZero pins the steal-heavy path (failed scans,
// flat-shuffle victim draws, successful steals from a single master
// queue) at zero allocations per task.
func TestStealPathAllocsAreZero(t *testing.T) {
	small := loopAllocs(t, masterQueuePlan, computeLoop(1, 128, 128, 1e-8))
	big := loopAllocs(t, masterQueuePlan, computeLoop(1, 512, 512, 1e-8))
	t.Logf("per-loop allocs: 128 tasks = %g, 512 tasks = %g", small, big)
	if big != small {
		t.Fatalf("steal path allocates per task: 128 tasks = %g, 512 tasks = %g", small, big)
	}
}

// TestChunkedStealAllocsAreZero covers the hierarchical + inter-node +
// chunked-transfer variant of the steal path.
func TestChunkedStealAllocsAreZero(t *testing.T) {
	chunkedPlan := func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{
			Active:         allCores(rt.Topology().NumCores()),
			Place:          make([]TaskPlacement, 0, spec.Tasks),
			Mode:           StealHierarchical,
			InterNodeSteal: true,
			StealChunk:     3,
		}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
		}
		return p
	}
	small := loopAllocs(t, chunkedPlan, computeLoop(1, 128, 128, 1e-8))
	big := loopAllocs(t, chunkedPlan, computeLoop(1, 512, 512, 1e-8))
	t.Logf("per-loop allocs: 128 tasks = %g, 512 tasks = %g", small, big)
	if big != small {
		t.Fatalf("chunked steal path allocates per task: 128 = %g, 512 = %g", small, big)
	}
}

// TestShuffledVictimsMatchesPermDrawOrder pins the RNG draw-order
// contract: the in-place Fisher–Yates over the scratch buffer must visit
// victims in exactly the order the old Perm-based scan did, consuming the
// identical Intn sequence — this is what keeps campaign outputs
// byte-identical across the zero-allocation rewrite.
func TestShuffledVictimsMatchesPermDrawOrder(t *testing.T) {
	rt := newTestRuntime(t, &silentScheduler{plan: spreadPlan})
	pool := rt.threads[:7]

	for seed := uint64(1); seed <= 5; seed++ {
		// Reference: the pre-rewrite formulation (fresh slice + Perm).
		ref := sim.NewRNG(seed)
		var want []*thread
		base := append([]*thread(nil), pool...)
		for _, i := range ref.Perm(len(base)) {
			want = append(want, base[i])
		}

		rt.rng = sim.NewRNG(seed)
		got := rt.shuffledVictims(rt.threads[8], pool, nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: got %d victims, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: visit order diverged at %d", seed, i)
			}
		}
		// Both generators must be in the same state afterwards (same
		// number of draws consumed).
		if rt.rng.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: draw counts diverged", seed)
		}
	}
}

// TestStealAttemptsCountFailedScans is the accounting regression test:
// threads that run a full victim scan and find nothing must still count a
// steal attempt (the scan costs VictimScan time), so attempts can exceed
// successful steals.
func TestStealAttemptsCountFailedScans(t *testing.T) {
	sch := &silentScheduler{plan: masterQueuePlan}
	rt := newTestRuntime(t, sch)
	// 4 tasks on core 0 with 16 active cores: most threads' first scan
	// finds the queue already drained and fails.
	spec := computeLoop(1, 4, 4, 1e-3)
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	steals := st.StealsLocal + st.StealsRemote
	if st.StealAttempts <= steals {
		t.Fatalf("StealAttempts = %d, steals = %d: failed scans are not counted",
			st.StealAttempts, steals)
	}
	// Run-level aggregate must match the per-loop accounting.
	res := rt.stealAttempts
	if res != st.StealAttempts {
		t.Fatalf("runtime StealAttempts = %d, loop = %d", res, st.StealAttempts)
	}
}

// TestStealOffCountsNoAttempts: with stealing disabled an empty pop parks
// the thread without a scan, so no attempt may be recorded.
func TestStealOffCountsNoAttempts(t *testing.T) {
	plan := func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{
			Active: allCores(rt.Topology().NumCores()),
			Place:  make([]TaskPlacement, 0, spec.Tasks),
			Mode:   StealOff,
		}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
		}
		return p
	}
	rt := newTestRuntime(t, &silentScheduler{plan: plan})
	var st *LoopStats
	rt.SubmitLoop(computeLoop(1, 4, 4, 1e-4), func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if st.StealAttempts != 0 {
		t.Fatalf("StealAttempts = %d under StealOff, want 0", st.StealAttempts)
	}
}

// --- stealFor edge cases ---

func mkTask(lo int, strict bool, home int) *Task {
	return &Task{Lo: lo, Hi: lo + 1, Strict: strict, Home: home}
}

// An all-strict deque must be invisible to a remote thief and must remain
// untouched by the failed attempt (no RNG draw, no removal).
func TestStealForAllStrictRemoteThief(t *testing.T) {
	th := &thread{core: 0, node: 0}
	for i := 0; i < 4; i++ {
		th.deque = append(th.deque, mkTask(i, true, 0))
	}
	rng := sim.NewRNG(1)
	ref := sim.NewRNG(1)
	if got := th.stealFor(1, rng); got != nil {
		t.Fatalf("remote thief stole strict task %+v", got)
	}
	if len(th.deque) != 4 {
		t.Fatalf("failed steal mutated the deque: len = %d", len(th.deque))
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("failed steal consumed an RNG draw")
	}
	// The same deque is fully stealable for a same-node thief.
	if got := th.stealFor(0, rng); got == nil {
		t.Fatal("same-node thief failed to steal a strict task")
	}
}

// A single eligible task among strict ones must be picked regardless of
// the draw, and its removal must preserve the order of the rest.
func TestStealForSingleEligibleRemoval(t *testing.T) {
	th := &thread{core: 0, node: 0}
	th.deque = []*Task{
		mkTask(0, true, 0),
		mkTask(1, false, 0), // the only task a remote thief may take
		mkTask(2, true, 0),
		mkTask(3, true, 0),
	}
	rng := sim.NewRNG(7)
	got := th.stealFor(1, rng)
	if got == nil || got.Lo != 1 {
		t.Fatalf("stole %+v, want the single eligible task Lo=1", got)
	}
	want := []int{0, 2, 3}
	if len(th.deque) != 3 {
		t.Fatalf("deque len = %d, want 3", len(th.deque))
	}
	for i, task := range th.deque {
		if task.Lo != want[i] {
			t.Fatalf("removal broke deque order: got Lo=%d at %d, want %d", task.Lo, i, want[i])
		}
	}
}

// Draining a victim: repeated remote steals must take exactly the
// eligible tasks and then return nil — the termination condition the
// chunked-steal loop in dispatch relies on when a victim runs dry
// mid-chunk.
func TestStealForDrainsEligibleThenNil(t *testing.T) {
	th := &thread{core: 0, node: 0}
	eligible := 0
	for i := 0; i < 8; i++ {
		strict := i%2 == 0
		if !strict {
			eligible++
		}
		th.deque = append(th.deque, mkTask(i, strict, 0))
	}
	rng := sim.NewRNG(3)
	taken := 0
	for {
		task := th.stealFor(1, rng)
		if task == nil {
			break
		}
		if task.Strict {
			t.Fatalf("remote thief took strict task %+v", task)
		}
		taken++
		if taken > eligible {
			t.Fatal("stealFor returned more tasks than were eligible")
		}
	}
	if taken != eligible {
		t.Fatalf("drained %d tasks, want %d", taken, eligible)
	}
	if len(th.deque) != 8-eligible {
		t.Fatalf("deque left with %d tasks, want %d strict ones", len(th.deque), 8-eligible)
	}
}

// TestChunkedStealDrainsVictimMidChunk drives the integration path: a
// chunk size far above the victim's eligible backlog must transfer what
// exists, stop at the drain, and still execute every iteration once.
func TestChunkedStealDrainsVictimMidChunk(t *testing.T) {
	plan := func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{
			Active:         allCores(rt.Topology().NumCores()),
			Place:          make([]TaskPlacement, 0, spec.Tasks),
			Mode:           StealHierarchical,
			InterNodeSteal: true,
			StealChunk:     64, // far larger than any victim backlog
		}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
		}
		return p
	}
	rt := newTestRuntime(t, &silentScheduler{plan: plan})
	iters := 48
	covered := make([]int, iters)
	spec := &LoopSpec{
		ID: 1, Name: "chunkdrain", Iters: iters, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			return 1e-4, nil
		},
	}
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
	total := 0
	for _, n := range st.NodeTasks {
		total += n
	}
	if total != 16 {
		t.Fatalf("NodeTasks total = %d, want 16", total)
	}
	// Every deque must be empty after the barrier.
	for c := 0; c < rt.Topology().NumCores(); c++ {
		if rt.QueuedTasks(c) != 0 {
			t.Fatalf("core %d still has %d queued tasks after the loop", c, rt.QueuedTasks(c))
		}
	}
}

// TestVictimPartitionMatchesPlan checks the plan-scoped victim partition:
// every active thread appears exactly once in flat, once in its node's
// local list, and in every other node's remote list — in plan order.
func TestVictimPartitionMatchesPlan(t *testing.T) {
	// Active = a scattered subset, deliberately not in core order.
	active := []int{5, 0, 12, 3, 9, 14}
	plan := func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{
			Active: active,
			Place:  make([]TaskPlacement, 0, spec.Tasks),
			Mode:   StealHierarchical,
		}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: active[ti%len(active)]})
		}
		return p
	}
	rt := newTestRuntime(t, &silentScheduler{plan: plan})
	rt.SubmitLoop(computeLoop(1, 12, 12, 1e-6), nil)

	if len(rt.execs) != 1 {
		t.Fatalf("in-flight table has %d executions, want 1", len(rt.execs))
	}
	v := &rt.execs[0].victims
	if len(v.flat) != len(active) {
		t.Fatalf("flat has %d entries, want %d", len(v.flat), len(active))
	}
	for i, c := range active {
		if v.flat[i].core != c {
			t.Fatalf("flat[%d] = core %d, want %d (plan order)", i, v.flat[i].core, c)
		}
	}
	for n := range v.localByNode {
		seen := 0
		for _, th := range v.localByNode[n] {
			if th.node != n {
				t.Fatalf("node %d local list contains core %d of node %d", n, th.core, th.node)
			}
			seen++
		}
		for _, th := range v.remoteByNode[n] {
			if th.node == n {
				t.Fatalf("node %d remote list contains its own core %d", n, th.core)
			}
			seen++
		}
		if seen != len(active) {
			t.Fatalf("node %d partition covers %d threads, want %d", n, seen, len(active))
		}
	}
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMachineExecAllocsSteadyState pins the machine's pooled fluid-task
// path: compute-only tasks on a warmed machine must not allocate.
func TestMachineExecAllocsSteadyState(t *testing.T) {
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  3,
		Noise: machine.NoiseConfig{Enabled: false},
		Alpha: -1,
	})
	eng := m.Engine()
	done := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		m.Exec(0, 1e-7, nil, done)
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per compute-only Exec = %g, want 0", allocs)
	}
}
