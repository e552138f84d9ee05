// Package ilan is the public API of the ILAN reproduction: a deterministic
// NUMA-machine simulator, an OpenMP-taskloop-like tasking runtime, the ILAN
// interference- and locality-aware scheduler from the SC Workshops '25
// paper, the baseline schedulers it is evaluated against, and the paper's
// seven benchmark workload models.
//
// The typical flow:
//
//	m := ilan.NewMachine(ilan.MachineConfig{Topology: ilan.Zen4Vera(), Seed: 1})
//	sched := ilan.NewScheduler(ilan.DefaultOptions())
//	rt := ilan.NewRuntime(m, sched)
//	prog := ... // a Program of LoopSpecs, or a built-in benchmark
//	res, err := rt.RunProgram(prog)
//
// Everything executes in virtual time on the simulated machine, so results
// are bit-reproducible for a given seed regardless of the host.
package ilan

import (
	ilansched "github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// TopologySpec describes a NUMA machine to simulate.
	TopologySpec = topology.Spec
	// Topology is a validated machine topology.
	Topology = topology.Machine
	// Machine is one simulated run's hardware instance.
	Machine = machine.Machine
	// NoiseConfig controls run-to-run variability sources.
	NoiseConfig = machine.NoiseConfig
	// Region is a simulated allocation placed across NUMA nodes.
	Region = memsys.Region
	// Access describes one memory touch of a task.
	Access = memsys.Access
	// Pattern classifies an access (Stream, Gather, Transpose).
	Pattern = memsys.Pattern
	// Runtime executes taskloops on a machine under a Scheduler.
	Runtime = taskrt.Runtime
	// Scheduler plans task placement and observes results.
	Scheduler = taskrt.Scheduler
	// LoopSpec describes one source-level taskloop.
	LoopSpec = taskrt.LoopSpec
	// LoopStats is the runtime's measurement of one taskloop execution.
	LoopStats = taskrt.LoopStats
	// Program is an application run: loops plus their execution sequence.
	Program = taskrt.Program
	// RunResult aggregates a full program run.
	RunResult = taskrt.RunResult
	// Costs prices the runtime's scheduling operations in virtual time.
	Costs = taskrt.Costs
	// Options tunes the ILAN scheduler.
	Options = ilansched.Options
	// ILANScheduler is the paper's scheduler, exposing PTT introspection.
	ILANScheduler = ilansched.Scheduler
	// Config is one ILAN taskloop configuration (threads, mask, policy).
	Config = ilansched.Config
	// Benchmark is a named workload-model builder.
	Benchmark = workloads.Benchmark
	// Class selects benchmark scale (ClassTest or ClassPaper).
	Class = workloads.Class
	// Objective selects the metric the PTT minimizes (time/energy/EDP).
	Objective = ilansched.Objective
	// EnergyModel prices machine activity in joules.
	EnergyModel = machine.EnergyModel
	// Counters is the simulated performance-counter snapshot.
	Counters = machine.Counters
	// Trace accumulates task events when tracing is enabled on a Runtime.
	Trace = taskrt.Trace
	// TaskEvent is one traced task execution.
	TaskEvent = taskrt.TaskEvent
)

// PTT objectives (the paper's execution-time setup plus the future-work
// energy metrics).
const (
	ObjectiveTime   = ilansched.ObjectiveTime
	ObjectiveEnergy = ilansched.ObjectiveEnergy
	ObjectiveEDP    = ilansched.ObjectiveEDP
)

// DefaultEnergy returns the energy-model calibration used by the
// experiments.
func DefaultEnergy() EnergyModel { return machine.DefaultEnergy() }

// Access patterns.
const (
	Stream    = memsys.Stream
	Gather    = memsys.Gather
	Transpose = memsys.Transpose
)

// Benchmark scales.
const (
	ClassTest  = workloads.ClassTest
	ClassPaper = workloads.ClassPaper
)

// Zen4Vera returns the paper's evaluation platform: a 64-core AMD EPYC
// 9354 node — 2 sockets x 4 NUMA nodes x 8 cores, 32 MB L3 per 4-core CCD.
func Zen4Vera() TopologySpec { return topology.Zen4Vera() }

// SmallTest returns a reduced 16-core topology for quick experiments.
func SmallTest() TopologySpec { return topology.SmallTest() }

// MachineConfig assembles a simulated machine.
type MachineConfig struct {
	// Topology of the machine; the zero value selects Zen4Vera.
	Topology TopologySpec
	// Seed drives all stochastic components (noise, steal victim order).
	Seed uint64
	// Noise enables run-to-run variability; zero value disables it.
	Noise NoiseConfig
}

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) *Machine {
	return machine.Build(machine.Spec{Topo: cfg.Topology, Noise: cfg.Noise}, cfg.Seed)
}

// DefaultNoise returns the noise calibration used by the experiments.
func DefaultNoise() NoiseConfig { return machine.DefaultNoise() }

// DefaultOptions returns the ILAN configuration used in the paper's
// evaluation (granularity = NUMA node size, strict fraction 0.75,
// moldability on).
func DefaultOptions() Options { return ilansched.DefaultOptions() }

// NewScheduler creates an ILAN scheduler. Create one per application run:
// its Performance Trace Table starts cold and learns across the run.
func NewScheduler(opts Options) *ILANScheduler { return ilansched.MustNew(opts) }

// NewBaseline returns the default LLVM-like random work-stealing scheduler
// the paper compares against.
func NewBaseline() Scheduler { return &sched.Baseline{} }

// NewWorkSharing returns the static OpenMP work-sharing scheduler
// (omp for schedule(static)).
func NewWorkSharing() Scheduler { return &sched.WorkSharing{} }

// NewAffinity returns a scheduler honouring OpenMP affinity-clause hints
// (paper §3.4 comparison).
func NewAffinity() Scheduler { return &sched.Affinity{} }

// NewShepherd returns the shepherd-style hierarchical scheduler of the
// related work ILAN builds on (hierarchy without adaptivity).
func NewShepherd() Scheduler { return &sched.Shepherd{} }

// NewRuntime wires a tasking runtime over a machine with default operation
// costs.
func NewRuntime(m *Machine, s Scheduler) *Runtime {
	return taskrt.New(m, s, taskrt.DefaultCosts())
}

// NewRuntimeWithCosts wires a runtime with explicit operation costs.
func NewRuntimeWithCosts(m *Machine, s Scheduler, c Costs) *Runtime {
	return taskrt.New(m, s, c)
}

// DefaultCosts returns the runtime operation costs used by the experiments.
func DefaultCosts() Costs { return taskrt.DefaultCosts() }

// Benchmarks returns the paper's seven benchmark models in reporting order
// (FT, BT, CG, LU, SP, Matmul, LULESH).
func Benchmarks() []Benchmark { return workloads.All() }

// BenchmarkByName looks up one of the seven benchmarks.
func BenchmarkByName(name string) (Benchmark, bool) { return workloads.ByName(name) }
