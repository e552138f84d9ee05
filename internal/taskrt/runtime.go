package taskrt

import (
	"fmt"
	"strings"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Costs are the virtual-time prices of runtime operations. They follow the
// order of magnitude of the LLVM runtime's task-management paths on the
// paper's platform (fractions of a microsecond per operation). Victim scans
// and barriers scale with the number of threads involved, which is what
// makes narrow ILAN configurations cheaper to synchronize — the effect the
// paper's Figure 5 measures.
type Costs struct {
	TaskCreate sim.Duration // per task, charged to the master at submission
	Dispatch   sim.Duration // per task acquisition (pop or steal)
	VictimScan sim.Duration // per victim deque inspected while stealing
	Barrier    sim.Duration // per active thread joining the loop barrier
}

// DefaultCosts returns the calibration used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		TaskCreate: 250e-9,
		Dispatch:   120e-9,
		VictimScan: 10e-9,
		Barrier:    100e-9,
	}
}

// Runtime executes taskloops on a simulated machine under a Scheduler.
// One Runtime corresponds to one application run: its scheduler state
// (e.g. ILAN's PTT) starts cold and persists across all loops of the run.
//
// The runtime is multiprogrammed: several loop executions — one per
// co-running program — can be in flight at once, space-sharing the
// machine. Their plans are core-disjoint (Plan.Validate enforces it
// against the live occupancy), each active thread is bound to exactly one
// execution, and all per-loop state lives on the execution, so concurrent
// loops never share mutable scheduling state. A solo program is the
// degenerate case with one entry in the table at a time.
type Runtime struct {
	mach  *machine.Machine
	topo  *topology.Machine
	eng   *sim.Engine
	costs Costs
	sched Scheduler
	rng   *sim.RNG

	threads []*thread
	// execs is the table of in-flight loop executions in submission
	// order, keyed by their execution IDs (loopExec.id). Concurrent
	// entries hold disjoint core sets.
	execs      []*loopExec
	nextExecID int
	// bufFree holds the scratch of retired executions for the next
	// submission to reuse (see execBufs).
	bufFree []*execBufs
	// scratch holds the victim order being shuffled for a steal scan. One
	// buffer serves every thread: scans run one at a time and never nest.
	scratch []*thread
	// occ is the reusable occupancy view assembled for each Plan call.
	occ    Occupancy
	energy machine.EnergyModel
	trace  *Trace
	// traceExecs counts each loop's executions while tracing is on; a
	// traced execution is stamped with its 1-based ordinal.
	traceExecs map[int]int

	// probe is the attached lifecycle observer (nil = off, the default).
	// Every use is nil-guarded; see probe.go for the overhead contract.
	probe Probe

	// obsRun is the attached observability collector (nil = off, the
	// default); obsLoopHist caches the loop-elapsed histogram handle so the
	// per-loop hook performs no registry lookups. See obs.go.
	obsRun      *obs.Run
	obsLoopHist *obs.Histogram

	// attrOn gates virtual-time attribution (see attr.go). attrIdleSince
	// stamps, per core, when the thread last became idle within the loop
	// it is bound to (cores are held by at most one execution, so the
	// per-core array needs no per-exec split); attrLoops accumulates
	// per-loop decompositions across the run.
	attrOn        bool
	attrIdleSince []sim.Time
	attrLoops     map[string]obs.LoopAttr
	lastLoopAttr  obs.LoopAttr

	// Run-level aggregates.
	overheadSec    float64
	elapsedLoopSec float64
	stealsLocal    int
	stealsRemote   int
	stealAttempts  int
	loopExecutions int
}

// victimSet is a plan-scoped partition of the active threads, precomputed
// at SubmitLoop. Entries preserve plan.Active order, which the
// draw-order-preserving shuffle in trySteal depends on (see DESIGN.md).
// Each in-flight execution carries its own partition, so concurrent loops
// steal strictly within their own active sets.
type victimSet struct {
	flat         []*thread   // all active threads (StealFlat scans these)
	localByNode  [][]*thread // active threads on each node
	remoteByNode [][]*thread // active threads on every other node
}

// execBufs is the scratch one loop execution holds from submission to
// retirement: its victim partition, the partition's backing arrays, and its
// task backing store. A retired execution's buffers go on Runtime.bufFree,
// so a steady stream of loops reuses them instead of allocating; executions
// in flight at the same time hold distinct buffers.
type execBufs struct {
	victims    victimSet
	localBack  []*thread
	remoteBack []*thread
	perNode    []int
	tasks      []Task
}

// takeBufs hands a new execution the most recently retired buffers, or
// fresh ones.
func (rt *Runtime) takeBufs() *execBufs {
	n := len(rt.bufFree)
	if n == 0 {
		return &execBufs{}
	}
	b := rt.bufFree[n-1]
	rt.bufFree[n-1] = nil
	rt.bufFree = rt.bufFree[:n-1]
	return b
}

// reuse returns s emptied, or a new slice when s cannot hold n elements.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

type thread struct {
	core    int
	node    int
	deque   []*Task // owner pops from the back, thieves scan from the front
	idle    bool
	pending bool // a dispatch event is already scheduled

	// exec is the in-flight loop execution this thread is bound to, nil
	// while unclaimed. Set when a plan claims the core at submission,
	// cleared at the loop's completion; plan disjointness guarantees at
	// most one execution holds a thread at a time.
	exec *loopExec

	// In-flight dispatch state. A thread has at most one acquired task
	// between dispatch and completion, so the per-dispatch values live
	// here instead of in per-dispatch closures.
	curTask   *Task
	curStolen bool
	curRemote bool
	curFrom   int // victim core of a stolen task, -1 otherwise
	curStart  sim.Time

	// Pre-bound callbacks (created once in New): the wake->dispatch hop,
	// the dispatch-cost delay, and the machine's task-done notification.
	dispatchFn sim.Event
	execFn     sim.Event
	taskDoneFn func()
}

type loopExec struct {
	id          int // execution ID: the in-flight table key
	spec        *LoopSpec
	plan        *Plan
	remaining   int
	start       sim.Time
	startJoules float64
	exec        int // per-loop execution ordinal for tracing
	startCtrs   machine.Counters
	st          LoopStats
	done        func(*LoopStats)

	// execBufs holds this execution's victim partition and task backing
	// store. They are execution-scoped so that concurrent loops steal and
	// release independently.
	*execBufs

	// Pre-bound lifecycle events (created once per execution): the
	// post-setup task release and the post-barrier completion.
	releaseFn  sim.Event
	loopDoneFn sim.Event

	// Attribution scratch (only written under Runtime.attrOn): the release
	// and finish instants plus the loop's dispatch-cost, imbalance, and
	// queue-wait accumulators.
	releaseAt sim.Time
	finishAt  sim.Time
	aSteal    float64
	aImb      float64
	aQueue    float64
}

// New builds a runtime over a machine with the given scheduler.
func New(mach *machine.Machine, sched Scheduler, costs Costs) *Runtime {
	if mach == nil {
		panic("taskrt: nil machine")
	}
	if sched == nil {
		panic("taskrt: nil scheduler")
	}
	rt := &Runtime{
		mach:   mach,
		topo:   mach.Topology(),
		eng:    mach.Engine(),
		costs:  costs,
		sched:  sched,
		rng:    mach.RNG().Split(0x7a5b),
		energy: machine.DefaultEnergy(),
	}
	nCores := rt.topo.NumCores()
	// The shuffle scratch holds at most every active thread.
	rt.scratch = make([]*thread, 0, nCores)
	for c := 0; c < nCores; c++ {
		th := &thread{
			core: c,
			node: rt.topo.NodeOfCore(c),
			idle: true,
			// The deque's capacity is fixed up front so the steal path
			// never grows it mid-campaign: it covers chunked-steal
			// transfers (releaseTasks warms wider master queues once).
			deque: make([]*Task, 0, 16),
		}
		th.dispatchFn = func() { rt.dispatch(th) }
		th.execFn = func() { rt.execTask(th) }
		th.taskDoneFn = func() { rt.taskDone(th) }
		rt.threads = append(rt.threads, th)
	}
	return rt
}

// Machine returns the simulated machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.mach }

// Topology returns the machine topology.
func (rt *Runtime) Topology() *topology.Machine { return rt.topo }

// Scheduler returns the active scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

// SetEnergyModel replaces the energy model used to attribute per-loop
// energy in LoopStats (default: machine.DefaultEnergy).
func (rt *Runtime) SetEnergyModel(em machine.EnergyModel) { rt.energy = em }

// EnergyModel returns the runtime's energy model.
func (rt *Runtime) EnergyModel() machine.EnergyModel { return rt.energy }

// SubmitLoop starts one taskloop execution. done fires after the barrier.
// Executions from different programs may be in flight concurrently as long
// as their plans are core-disjoint; a plan claiming a held core panics at
// validation. Within one program, loops still serialize through their
// barriers (RunWorkload submits the next loop only from the previous
// loop's done callback).
func (rt *Runtime) SubmitLoop(spec *LoopSpec, done func(*LoopStats)) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	occ := rt.occupancy()
	plan := rt.sched.Plan(rt, spec, occ)
	plan.Owner = spec.Program
	if err := plan.Validate(spec, rt.topo.NumCores(), occ); err != nil {
		panic(err)
	}
	if rt.probe != nil {
		rt.probe.LoopStart(spec, plan)
	}

	le := &loopExec{
		id:          rt.nextExecID,
		spec:        spec,
		plan:        plan,
		remaining:   len(plan.Place),
		start:       rt.eng.Now(),
		startJoules: rt.mach.EnergyJoules(rt.energy),
		done:        done,
	}
	rt.nextExecID++
	le.releaseFn = func() { rt.releaseTasks(le) }
	le.loopDoneFn = func() { rt.completeLoop(le) }
	le.st.NodeTaskSeconds = make([]float64, rt.topo.NumNodes())
	le.st.NodeTasks = make([]int, rt.topo.NumNodes())
	le.st.ActiveThreads = len(plan.Active)
	le.execBufs = rt.takeBufs()
	if rt.trace != nil {
		rt.traceExecs[spec.ID]++
		le.exec = rt.traceExecs[spec.ID]
	}
	le.startCtrs = rt.mach.Counters()
	rt.execs = append(rt.execs, le)
	for _, c := range plan.Active {
		rt.threads[c].exec = le
	}
	le.buildVictims(rt)

	setup := sim.Duration(plan.SelectOverheadSec) +
		rt.costs.TaskCreate*sim.Duration(len(plan.Place))
	rt.chargeOverhead(le, float64(setup))

	rt.eng.After(setup, le.releaseFn)
}

// occupancy assembles the live occupancy view over the in-flight table.
// The view is runtime-owned and rebuilt per call; Plan implementations
// must not retain it.
func (rt *Runtime) occupancy() *Occupancy {
	o := &rt.occ
	if len(o.held) != rt.topo.NumCores() {
		o.held = make([]bool, rt.topo.NumCores())
	}
	for i := range o.held {
		o.held[i] = false
	}
	o.count = 0
	for _, le := range rt.execs {
		for _, c := range le.plan.Active {
			if !o.held[c] {
				o.held[c] = true
				o.count++
			}
		}
	}
	return o
}

// InFlight reports the number of loop executions currently in the table.
func (rt *Runtime) InFlight() int { return len(rt.execs) }

// freeCores reports how many cores no in-flight execution holds. Plans
// are core-disjoint, so the active sets sum exactly.
func (rt *Runtime) freeCores() int {
	held := 0
	for _, le := range rt.execs {
		held += len(le.plan.Active)
	}
	return rt.topo.NumCores() - held
}

// buildVictims computes the execution's victim partition. Partitions are
// plan-scoped: Active is fixed for the whole loop, so the grouping never
// changes between steal attempts — only the scan order does, and that is
// (re)drawn per attempt over the runtime's scratch buffer.
func (le *loopExec) buildVictims(rt *Runtime) {
	nNodes := rt.topo.NumNodes()
	nActive := len(le.plan.Active)
	v := &le.victims
	v.flat = reuse(v.flat, nActive)
	v.localByNode = reuse(v.localByNode, nNodes)[:nNodes]
	v.remoteByNode = reuse(v.remoteByNode, nNodes)[:nNodes]
	// Two shared backing arrays keep the partition's allocation count
	// independent of both the active-set size and the node count: the
	// local groups partition Active, the remote groups tile it once per
	// other node.
	le.localBack = reuse(le.localBack, nActive)
	le.remoteBack = reuse(le.remoteBack, nActive*(nNodes-1))
	localBack, remoteBack := le.localBack, le.remoteBack
	le.perNode = reuse(le.perNode, nNodes)[:nNodes]
	perNode := le.perNode
	clear(perNode)
	for _, c := range le.plan.Active {
		perNode[rt.threads[c].node]++
	}
	for n := 0; n < nNodes; n++ {
		lo := len(localBack)
		v.localByNode[n] = localBack[lo : lo : lo+perNode[n]]
		localBack = localBack[:lo+perNode[n]]
		ro := len(remoteBack)
		v.remoteByNode[n] = remoteBack[ro : ro : ro+nActive-perNode[n]]
		remoteBack = remoteBack[:ro+nActive-perNode[n]]
	}
	for _, c := range le.plan.Active {
		th := rt.threads[c]
		v.flat = append(v.flat, th)
		for n := 0; n < nNodes; n++ {
			if th.node == n {
				v.localByNode[n] = append(v.localByNode[n], th)
			} else {
				v.remoteByNode[n] = append(v.remoteByNode[n], th)
			}
		}
	}
}

// releaseTasks enqueues the execution's tasks and wakes its active
// threads; it runs once per loop after the setup delay.
func (rt *Runtime) releaseTasks(le *loopExec) {
	plan := le.plan
	if rt.attrOn {
		rt.attrRelease(le)
	}
	if cap(le.tasks) < len(plan.Place) {
		le.tasks = make([]Task, len(plan.Place))
	}
	tasks := le.tasks[:len(plan.Place)]
	for i, tp := range plan.Place {
		th := rt.threads[tp.Core]
		tasks[i] = Task{Lo: tp.Lo, Hi: tp.Hi, Strict: tp.Strict, Home: th.node}
		th.deque = append(th.deque, &tasks[i])
	}
	for _, c := range plan.Active {
		rt.wake(c)
	}
}

// wake schedules a dispatch attempt for an idle thread.
func (rt *Runtime) wake(core int) {
	th := rt.threads[core]
	if !th.idle || th.pending {
		return
	}
	th.pending = true
	rt.eng.After(0, th.dispatchFn)
}

// dispatch makes a thread acquire and execute its next task, or go idle.
// Idle threads need no mid-loop wakeups: tasks are only enqueued at loop
// start, so work available to a given thread is monotonically consumed —
// once a thread finds nothing it is allowed to take, that stays true for
// the rest of the loop.
func (rt *Runtime) dispatch(th *thread) {
	th.pending = false
	le := th.exec
	if le == nil {
		th.idle = true
		return
	}
	task := th.pop()
	var stolen, remote, attempted bool
	var scanned int
	var victim *thread
	if task == nil {
		task, remote, scanned, victim = rt.trySteal(th, le)
		stolen = task != nil
		attempted = le.plan.Mode != StealOff
	}
	if stolen && rt.probe != nil {
		rt.probe.Steal(th.core, victim.core, task, remote, true)
	}
	if stolen && remote && victim != nil && le.plan.StealChunk > 1 {
		// Chunked remote steal (shepherd-style): transfer extra eligible
		// tasks into the thief's own deque so its node's subsequent
		// dispatches are local pops instead of further remote steals.
		for n := 1; n < le.plan.StealChunk; n++ {
			extra := victim.stealFor(th.node, rt.rng)
			if extra == nil {
				break
			}
			if rt.probe != nil {
				rt.probe.Steal(th.core, victim.core, extra, remote, false)
			}
			th.deque = append(th.deque, extra)
		}
	}
	// Failed scans are attempts too: they cost VictimScan time, and the
	// steal-pressure statistics must reflect them (a loop whose threads
	// scan fruitlessly is not the same as one that never steals).
	if attempted {
		rt.stealAttempts++
		le.st.StealAttempts++
	}
	cost := rt.costs.Dispatch + rt.costs.VictimScan*sim.Duration(scanned)
	if task == nil {
		// A failed full scan still costs bookkeeping time before the
		// thread parks; charge it to overhead (the thread is idle anyway,
		// so no virtual-time delay is modelled).
		rt.chargeOverhead(le, float64(rt.costs.VictimScan*sim.Duration(scanned)))
		th.idle = true
		if rt.attrOn {
			rt.attrIdleSince[th.core] = rt.eng.Now()
		}
		return
	}
	th.idle = false
	if rt.attrOn {
		le.aQueue += float64(rt.eng.Now() - le.releaseAt)
		le.aSteal += float64(cost)
	}

	if stolen {
		if remote {
			rt.stealsRemote++
			le.st.StealsRemote++
		} else {
			rt.stealsLocal++
			le.st.StealsLocal++
		}
	}
	rt.chargeOverhead(le, float64(cost))

	th.curTask = task
	th.curStolen = stolen
	th.curRemote = remote
	th.curFrom = -1
	if stolen && victim != nil {
		th.curFrom = victim.core
	}
	rt.eng.After(cost, th.execFn)
}

// execTask starts the thread's acquired task on the machine after the
// dispatch cost has elapsed.
func (rt *Runtime) execTask(th *thread) {
	le := th.exec
	if le == nil {
		panic("taskrt: task dispatched outside a loop")
	}
	task := th.curTask
	if rt.probe != nil {
		rt.probe.TaskStart(th.core, task)
	}
	compute, acc := le.spec.Demand(task.Lo, task.Hi)
	th.curStart = rt.eng.Now()
	rt.mach.Exec(th.core, compute, acc, th.taskDoneFn)
}

// taskDone records the finished task and drives the thread's next dispatch.
func (rt *Runtime) taskDone(th *thread) {
	le := th.exec
	if le == nil {
		panic("taskrt: task completed outside a loop")
	}
	if rt.trace != nil {
		task := th.curTask
		ta := rt.mach.LastTaskAttr()
		rt.trace.record(TaskEvent{
			LoopID: le.spec.ID, LoopName: le.spec.Name, Exec: le.exec,
			Program: le.spec.Program,
			Lo:      task.Lo, Hi: task.Hi, Core: th.core, Node: th.node,
			StartSec: float64(th.curStart), EndSec: float64(rt.eng.Now()),
			Stolen: th.curStolen, Remote: th.curRemote,
			Strict: task.Strict, FromCore: th.curFrom,
			IdealSec: ta.IdealComputeSec, CoreSpeedSec: ta.CoreSpeedSec,
			IdealMemSec: ta.IdealMemorySec, LocalitySec: ta.LocalitySec,
			InterferenceSec: ta.InterferenceSec,
		})
		rt.sampleResources()
	}
	rt.onTaskDone(th, float64(rt.eng.Now()-th.curStart))
}

// sampleResources appends one per-node resource sample at the current
// virtual time. Trace-gated: it runs once per task completion and only
// while tracing is enabled, never on the metrics-off hot path.
func (rt *Runtime) sampleResources() {
	now := float64(rt.eng.Now())
	for n := 0; n < rt.topo.NumNodes(); n++ {
		rt.trace.Resources = append(rt.trace.Resources, ResSample{
			TimeSec: now, Node: n,
			MCBytes: rt.mach.ControllerBytes(n),
			Queue:   rt.mach.ControllerLoad(n),
		})
	}
}

func (rt *Runtime) onTaskDone(th *thread, durSec float64) {
	le := th.exec
	if le == nil {
		panic("taskrt: task completed outside a loop")
	}
	if rt.probe != nil {
		rt.probe.TaskDone(th.core, th.curTask)
	}
	le.st.NodeTaskSeconds[th.node] += durSec
	le.st.NodeTasks[th.node]++
	le.remaining--
	if le.remaining == 0 {
		th.idle = true
		if rt.attrOn {
			rt.attrIdleSince[th.core] = rt.eng.Now()
			rt.attrFinish(le)
		}
		rt.finishLoop(le)
		return
	}
	rt.dispatch(th)
}

func (rt *Runtime) finishLoop(le *loopExec) {
	barrier := rt.costs.Barrier * sim.Duration(len(le.plan.Active))
	rt.chargeOverhead(le, float64(barrier))
	rt.eng.After(barrier, le.loopDoneFn)
}

// completeLoop fires after the barrier: it finalizes the loop's stats,
// hands them to the scheduler, and removes the execution from the
// in-flight table, releasing its cores for waiting submissions.
func (rt *Runtime) completeLoop(le *loopExec) {
	le.st.Elapsed = rt.eng.Now() - le.start
	le.st.EnergyJoules = rt.mach.EnergyJoules(rt.energy) - le.startJoules
	endCtrs := rt.mach.Counters()
	le.st.ComputeSeconds = endCtrs.ComputeSeconds - le.startCtrs.ComputeSeconds
	le.st.MemorySeconds = endCtrs.MemorySeconds - le.startCtrs.MemorySeconds
	if rt.attrOn {
		rt.attrCompleteLoop(le)
	}
	if rt.trace != nil {
		rt.trace.endLoop(le.spec, le.exec, le.start, rt.eng.Now(), le.st.ActiveThreads)
	}
	if rt.obsRun != nil {
		rt.observeLoop(le)
	}
	if rt.probe != nil {
		rt.probe.LoopDone(le.spec, le.plan, &le.st)
	}
	for i, e := range rt.execs {
		if e == le {
			rt.execs = append(rt.execs[:i], rt.execs[i+1:]...)
			break
		}
	}
	for _, c := range le.plan.Active {
		if th := rt.threads[c]; th.exec == le {
			th.exec = nil
		}
	}
	// Every task has run and every deque of the plan is dry, so nothing
	// points into the buffers any more.
	rt.bufFree = append(rt.bufFree, le.execBufs)
	le.execBufs = nil
	rt.loopExecutions++
	rt.elapsedLoopSec += float64(le.st.Elapsed)
	rt.sched.Observe(rt, le.spec, &le.st)
	if le.done != nil {
		le.done(&le.st)
	}
}

func (rt *Runtime) chargeOverhead(le *loopExec, sec float64) {
	rt.overheadSec += sec
	if le != nil {
		le.st.OverheadSec += sec
	}
}

// shuffledVictims copies src (minus skip, when non-nil) into the scratch
// buffer and shuffles it in place with a Fisher–Yates that performs the
// exact Intn draw sequence of sim.RNG.Perm(len(result)). Applying Perm's
// swap sequence directly to the victim values instead of to an index
// permutation visits victims in the identical order while allocating
// nothing — the draw-order contract campaign determinism rests on.
func (rt *Runtime) shuffledVictims(src []*thread, skip *thread) []*thread {
	s := rt.scratch[:0]
	for _, v := range src {
		if v != skip {
			s = append(s, v)
		}
	}
	rt.scratch = s
	for i := len(s) - 1; i > 0; i-- {
		j := rt.rng.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// trySteal searches for a stealable task per the current plan's mode.
// It reports the task, whether it crossed NUMA nodes, how many victim
// deques were inspected (for overhead accounting), and the victim thread
// (for chunked steals).
func (rt *Runtime) trySteal(th *thread, le *loopExec) (*Task, bool, int, *thread) {
	plan := le.plan
	victims := &le.victims
	scanned := 0
	switch plan.Mode {
	case StealOff:
		return nil, false, 0, nil
	case StealFlat:
		// The shuffle spans every active thread (the thief included, as in
		// the LLVM runtime's victim draw); the thief skips itself while
		// scanning.
		for _, v := range rt.shuffledVictims(victims.flat, nil) {
			if v == th {
				continue
			}
			scanned++
			if t := v.stealFor(th.node, rt.rng); t != nil {
				return t, v.node != th.node, scanned, v
			}
		}
		return nil, false, scanned, nil
	case StealHierarchical:
		for _, v := range rt.shuffledVictims(victims.localByNode[th.node], th) {
			scanned++
			if t := v.stealFor(th.node, rt.rng); t != nil {
				return t, false, scanned, v
			}
		}
		// The local scan found every same-node deque empty, so the
		// thief's node is out of queued work: inter-node stealing is
		// allowed if the plan permits it.
		if plan.InterNodeSteal {
			for _, v := range rt.shuffledVictims(victims.remoteByNode[th.node], nil) {
				scanned++
				if t := v.stealFor(th.node, rt.rng); t != nil {
					return t, true, scanned, v
				}
			}
		}
		return nil, false, scanned, nil
	default:
		panic(fmt.Sprintf("taskrt: unknown steal mode %v", plan.Mode))
	}
}

// pop takes the owner's newest task (LIFO).
func (th *thread) pop() *Task {
	n := len(th.deque)
	if n == 0 {
		return nil
	}
	t := th.deque[n-1]
	th.deque = th.deque[:n-1]
	return t
}

// stealFor removes and returns a uniformly random task a thief from
// thiefNode may take, honouring NUMA-strictness. Random-position stealing
// models how the LLVM runtime's recursive taskloop splitting scatters
// stolen iteration subtrees across the machine: a FIFO discipline would
// make the in-flight tasks a consecutive iteration window, clustering
// their traffic on one or two memory controllers — a pathology the real
// runtime does not exhibit.
//
// The removal is an order-preserving copy inside the deque's backing
// array (no allocation). It must stay order-preserving: the owner pops
// from the back and the uniform pick maps onto deque order, so a
// swap-remove would change which tasks later draws select and break the
// campaign determinism contract.
func (th *thread) stealFor(thiefNode int, rng *sim.RNG) *Task {
	eligible := 0
	for _, t := range th.deque {
		if !t.Strict || t.Home == thiefNode {
			eligible++
		}
	}
	if eligible == 0 {
		return nil
	}
	pick := rng.Intn(eligible)
	drawn := pick
	for i, t := range th.deque {
		if t.Strict && t.Home != thiefNode {
			continue
		}
		if pick == 0 {
			th.deque = append(th.deque[:i], th.deque[i+1:]...)
			return t
		}
		pick--
	}
	// Unreachable while the eligibility count above and this scan agree;
	// reaching it means the deque changed between the two passes (data race)
	// or the predicate diverged. Dump enough state to make a fuzzer-found
	// violation actionable.
	panic(stealForStateDump(th, thiefNode, eligible, drawn))
}

// stealForStateDump renders the victim/thief state for the stealFor
// consistency panic: the counted-eligible vs scanned mismatch cannot be
// debugged from a bare message.
func stealForStateDump(th *thread, thiefNode, eligible, drawn int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "taskrt: stealFor bookkeeping error: drew %d of %d eligible tasks but scan ran dry\n",
		drawn, eligible)
	fmt.Fprintf(&b, "  victim: core %d (node %d), %d queued tasks; thief node %d\n",
		th.core, th.node, len(th.deque), thiefNode)
	for i, t := range th.deque {
		elig := !t.Strict || t.Home == thiefNode
		fmt.Fprintf(&b, "  deque[%d]: iters [%d,%d) strict=%v home=%d eligible=%v\n",
			i, t.Lo, t.Hi, t.Strict, t.Home, elig)
	}
	return b.String()
}

// QueuedTasks reports the number of tasks currently queued on a core
// (diagnostics and tests). Out-of-range cores report zero.
func (rt *Runtime) QueuedTasks(core int) int {
	if core < 0 || core >= len(rt.threads) {
		return 0
	}
	return len(rt.threads[core].deque)
}
