package taskrt

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/sim"
)

// Program is a whole application run expressed as a sequence of taskloop
// executions with barriers between them: the distinct loops (each a PTT
// identity) and the order they execute in. A timestep-based benchmark is a
// Sequence that repeats its per-step loops once per timestep.
type Program struct {
	Name     string
	Loops    []*LoopSpec
	Sequence []int // indices into Loops, in execution order
}

// Validate checks program consistency.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("taskrt: nil program")
	}
	if len(p.Loops) == 0 || len(p.Sequence) == 0 {
		return fmt.Errorf("taskrt: program %q is empty", p.Name)
	}
	ids := make(map[int]bool)
	for _, l := range p.Loops {
		if err := l.Validate(); err != nil {
			return err
		}
		if ids[l.ID] {
			return fmt.Errorf("taskrt: program %q reuses loop ID %d", p.Name, l.ID)
		}
		ids[l.ID] = true
	}
	used := make([]bool, len(p.Loops))
	for _, s := range p.Sequence {
		if s < 0 || s >= len(p.Loops) {
			return fmt.Errorf("taskrt: program %q sequence index %d out of range", p.Name, s)
		}
		used[s] = true
	}
	// Dead loop specs are rejected rather than ignored: an unreferenced
	// Loops entry is almost always a mis-built Sequence, and silently
	// accepting it would let a benchmark drop work without any signal.
	for i, u := range used {
		if !u {
			return fmt.Errorf("taskrt: program %q declares loop %q (ID %d) that Sequence never references",
				p.Name, p.Loops[i].Name, p.Loops[i].ID)
		}
	}
	return nil
}

// RunResult aggregates a full program run.
type RunResult struct {
	Elapsed        sim.Duration // total virtual wall time of the run
	OverheadSec    float64      // accumulated scheduling overhead
	LoopExecutions int
	TasksExecuted  uint64
	StealsLocal    int
	StealsRemote   int
	StealAttempts  int
	// WeightedAvgThreads is the execution-time-weighted mean number of
	// active threads across the run's loops — the quantity of Figure 3.
	WeightedAvgThreads float64
}

// RunProgram executes the program to completion and returns the aggregate
// result. It is the one-program case of RunWorkload: the program arrives
// at the current virtual time, starts at once, and keeps no loop tag (a
// solo program's trace stays a single process). It drives the engine
// itself; the engine must be otherwise idle.
//
// The counts are this run's. OverheadSec is the runtime-wide accumulator,
// charged once per overhead term and spanning every run on the runtime;
// summing per-loop subtotals (ProgramResult.OverheadSec) can differ from
// it in the last bits.
func (rt *Runtime) RunProgram(p *Program) (*RunResult, error) {
	if p == nil {
		return nil, fmt.Errorf("taskrt: nil program")
	}
	wr, err := rt.RunWorkload(&Workload{Name: p.Name, Programs: []*Program{p}})
	if err != nil {
		return nil, err
	}
	pr := wr.Programs[0]
	return &RunResult{
		Elapsed:            wr.Elapsed,
		OverheadSec:        rt.overheadSec,
		LoopExecutions:     pr.LoopExecutions,
		TasksExecuted:      pr.TasksExecuted,
		StealsLocal:        pr.StealsLocal,
		StealsRemote:       pr.StealsRemote,
		StealAttempts:      pr.StealAttempts,
		WeightedAvgThreads: pr.WeightedAvgThreads,
	}, nil
}
