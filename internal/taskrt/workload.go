package taskrt

import (
	"fmt"
	"math"

	"github.com/ilan-sched/ilan/internal/sim"
)

// Workload is a multiprogrammed run: N programs submitted to one runtime
// with deterministic arrival offsets, space-sharing the machine. Each
// program keeps its own loop sequence and barriers; the runtime admits a
// program's loops as soon as free cores exist, so co-runners execute
// concurrently on disjoint core sets.
type Workload struct {
	Name     string
	Programs []*Program

	// ArrivalSpreadSec scatters program arrivals uniformly over
	// [0, ArrivalSpreadSec) using a dedicated RNG stream split off the
	// machine's base RNG (so arrivals never perturb steal or noise
	// draws). Zero means all programs arrive at virtual time zero, in
	// slice order.
	ArrivalSpreadSec float64
}

// Validate checks workload consistency: every program valid on its own,
// program names unique and, once there are co-runners, non-empty (they key
// the per-program results and tag traces; a lone program needs neither),
// and loop IDs globally unique across programs (loop IDs key scheduler
// state such as ILAN's PTT, which is per-runtime).
func (w *Workload) Validate() error {
	if w == nil {
		return fmt.Errorf("taskrt: nil workload")
	}
	if len(w.Programs) == 0 {
		return fmt.Errorf("taskrt: workload %q has no programs", w.Name)
	}
	if w.ArrivalSpreadSec < 0 || math.IsNaN(w.ArrivalSpreadSec) || math.IsInf(w.ArrivalSpreadSec, 0) {
		return fmt.Errorf("taskrt: workload %q arrival spread %v is not a finite non-negative duration",
			w.Name, w.ArrivalSpreadSec)
	}
	names := make(map[string]bool, len(w.Programs))
	owner := make(map[int]string)
	for _, p := range w.Programs {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.Name == "" && len(w.Programs) > 1 {
			return fmt.Errorf("taskrt: workload %q has an unnamed program", w.Name)
		}
		if names[p.Name] {
			return fmt.Errorf("taskrt: workload %q reuses program name %q", w.Name, p.Name)
		}
		names[p.Name] = true
		for _, l := range p.Loops {
			if prev, ok := owner[l.ID]; ok {
				return fmt.Errorf("taskrt: workload %q: loop ID %d appears in both program %q and program %q (IDs key per-runtime scheduler state and must be globally unique)",
					w.Name, l.ID, prev, p.Name)
			}
			owner[l.ID] = p.Name
		}
	}
	return nil
}

// ProgramResult is one program's slice of a workload run.
type ProgramResult struct {
	Name       string
	ArrivalSec float64 // when the program entered the admission queue
	StartSec   float64 // when its first loop was submitted
	EndSec     float64 // when its last loop's barrier completed

	// MakespanSec is EndSec−ArrivalSec: the program's arrival-to-finish
	// latency including any time spent queued behind co-runners. Dividing
	// by the program's solo makespan gives its slowdown under co-running.
	MakespanSec float64

	LoopExecutions int
	TasksExecuted  uint64
	StealsLocal    int
	StealsRemote   int
	StealAttempts  int
	OverheadSec    float64
	// WeightedAvgThreads is the execution-time-weighted mean active
	// thread count over this program's loops.
	WeightedAvgThreads float64
}

// WorkloadResult aggregates a multiprogrammed run.
type WorkloadResult struct {
	Elapsed  sim.Duration // arrival of the first program to the last barrier
	Programs []ProgramResult
}

// progState is the per-program driver: the sequence cursor plus the
// aggregates folded in the loop-done callback.
type progState struct {
	p                 *Program
	res               ProgramResult
	cursor            int
	elapsedLoopSec    float64
	weightedThreadSec float64
	loopDone          func(*LoopStats)
}

// RunWorkload executes all programs to completion and returns per-program
// results in Programs order. Admission is FIFO: an arriving program queues,
// and queued programs start (in arrival order) whenever free cores exist —
// a program mid-sequence keeps resubmitting through its own barriers
// without re-queuing. A zero-delay arrival is admitted synchronously, in
// slice order, and fires no engine event. RunWorkload never writes
// LoopSpec.Program: the builders that assemble co-runs tag their loops.
// It drives the engine itself; the engine must be otherwise idle.
func (rt *Runtime) RunWorkload(w *Workload) (*WorkloadResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(rt.execs) != 0 {
		return nil, fmt.Errorf("taskrt: RunWorkload while a loop is in flight")
	}
	start := rt.eng.Now()

	// Arrival offsets come from a dedicated stream split off the machine
	// base RNG before the engine runs, so the runtime's steal stream and
	// the machine's noise streams draw exactly what they would solo.
	var arr *sim.RNG
	if w.ArrivalSpreadSec > 0 {
		arr = rt.mach.RNG().Split(0xa441)
	}

	states := make([]*progState, len(w.Programs))
	var queue []*progState
	live := len(w.Programs)

	// pump starts queued programs while free cores remain. Head-of-line
	// blocking is intentional: FIFO admission keeps start order a pure
	// function of arrival order, independent of plan widths.
	var pump func()
	submitNext := func(ps *progState) {
		i := ps.p.Sequence[ps.cursor]
		ps.cursor++
		rt.SubmitLoop(ps.p.Loops[i], ps.loopDone)
	}
	pump = func() {
		for len(queue) > 0 && rt.freeCores() > 0 {
			ps := queue[0]
			queue = queue[1:]
			ps.res.StartSec = float64(rt.eng.Now())
			submitNext(ps)
		}
	}

	for pi, p := range w.Programs {
		ps := &progState{p: p, res: ProgramResult{Name: p.Name}}
		// The continuation is iterative, not recursive: loopDone fires
		// from the event loop and returns before the next completion
		// event runs, so resubmitting from it never grows the native stack
		// with the sequence length.
		ps.loopDone = func(st *LoopStats) {
			ps.res.LoopExecutions++
			for _, n := range st.NodeTasks {
				ps.res.TasksExecuted += uint64(n)
			}
			ps.res.StealsLocal += st.StealsLocal
			ps.res.StealsRemote += st.StealsRemote
			ps.res.StealAttempts += st.StealAttempts
			ps.res.OverheadSec += st.OverheadSec
			ps.elapsedLoopSec += float64(st.Elapsed)
			ps.weightedThreadSec += float64(st.Elapsed) * float64(st.ActiveThreads)
			if ps.cursor < len(ps.p.Sequence) {
				submitNext(ps)
			} else {
				ps.res.EndSec = float64(rt.eng.Now())
				live--
			}
			// The completed loop's cores are free again (or were just
			// re-claimed by this program's next loop): try to admit.
			pump()
		}
		states[pi] = ps

		arrive := func() {
			ps.res.ArrivalSec = float64(rt.eng.Now())
			queue = append(queue, ps)
			pump()
		}
		var delay sim.Duration
		if arr != nil {
			delay = sim.Duration(arr.Float64() * w.ArrivalSpreadSec)
		}
		if delay == 0 {
			arrive()
		} else {
			rt.eng.After(delay, arrive)
		}
	}

	if err := rt.eng.Run(); err != nil {
		return nil, fmt.Errorf("taskrt: workload %q: %w", w.Name, err)
	}
	if live != 0 {
		return nil, fmt.Errorf("taskrt: workload %q: engine drained with %d programs unfinished", w.Name, live)
	}

	res := &WorkloadResult{Elapsed: rt.eng.Now() - start}
	for _, ps := range states {
		ps.res.MakespanSec = ps.res.EndSec - ps.res.ArrivalSec
		if ps.elapsedLoopSec > 0 {
			ps.res.WeightedAvgThreads = ps.weightedThreadSec / ps.elapsedLoopSec
		}
		res.Programs = append(res.Programs, ps.res)
	}
	return res, nil
}
