package harness

import (
	"fmt"
	"io"
	"strings"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// The multiprogrammed campaign ("multi" experiment): N benchmarks co-run
// as one workload on one machine, and each program's makespan is compared
// against the same benchmark running alone under the same scheduler —
// the slowdown-vs-solo metric. The campaign has two phases:
//
//  1. solo reference: a plain campaign over the distinct benchmarks (the
//     denominator), cache-shared with ordinary solo campaigns;
//  2. co-run: one workload per (kind, rep), all programs submitted
//     through the runtime's admission queue with the configured arrival
//     spread.
//
// Both phases fan across cfg.Jobs workers with the usual determinism
// contract: outputs are byte-identical for every Jobs value.

// CoRun describes the co-run scenario: which benchmarks run together and
// over how many seconds their arrivals are spread (0 = all at t=0). The
// same benchmark may appear more than once (self-interference).
type CoRun struct {
	Benches          []string `json:"benches"`
	ArrivalSpreadSec float64  `json:"arrivalSpreadSec,omitempty"`
}

// Scenario names the co-run for reports and results files, e.g. "CG+FT".
func (co *CoRun) Scenario() string { return strings.Join(co.Benches, "+") }

// resolve maps the co-run's benchmark names to registry entries.
func (co *CoRun) resolve() ([]workloads.Benchmark, error) {
	if co == nil || len(co.Benches) == 0 {
		return nil, fmt.Errorf("harness: multi campaign needs at least one benchmark")
	}
	bs := make([]workloads.Benchmark, 0, len(co.Benches))
	for _, name := range co.Benches {
		b, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q in co-run", name)
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// ProgramSample is one program's outcome inside one co-run repetition.
type ProgramSample struct {
	Program     string  // workload program name ("CG", "CG#2", ...)
	Bench       string  // benchmark the program is a copy of
	ArrivalSec  float64 // admission-queue entry time
	StartSec    float64 // first loop submission
	MakespanSec float64 // EndSec − ArrivalSec (includes queueing)
	Tasks       uint64
}

// MultiSample is one co-run repetition: the workload's overall elapsed
// time plus each program's outcome, in submission order.
type MultiSample struct {
	ElapsedSec float64
	Programs   []ProgramSample
	// Obs is the repetition's observability snapshot (nil unless
	// Config.Metrics or Config.TraceDecisions is set). Decision traces are
	// tagged with the deciding program.
	Obs *obs.Snapshot
	// Trace is the repetition's packed task-event trace (empty unless
	// Config.TraceTasks is set and this is repetition 0); task events are
	// tagged per program, so the Perfetto export groups co-runners as
	// separate processes.
	Trace taskrt.PackedTrace
}

// MultiCell aggregates all repetitions of one scheduler kind over the
// co-run scenario.
type MultiCell struct {
	Kind    Kind
	Samples []MultiSample

	trace *taskrt.Trace // TaskTrace's decode of Samples[0].Trace
}

// Elapsed returns the overall workload elapsed seconds of all samples.
func (c *MultiCell) Elapsed() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.ElapsedSec
	}
	return out
}

// Makespans returns program pi's makespan across the repetitions.
func (c *MultiCell) Makespans(pi int) []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.Programs[pi].MakespanSec
	}
	return out
}

// MergedObs merges the samples' observability snapshots in repetition
// order (nil when the campaign ran without metrics).
func (c *MultiCell) MergedObs() *obs.Snapshot {
	snaps := make([]*obs.Snapshot, len(c.Samples))
	for i, s := range c.Samples {
		snaps[i] = s.Obs
	}
	return obs.Merge(snaps)
}

// PackedTrace returns repetition 0's packed task trace, or nil.
func (c *MultiCell) PackedTrace() taskrt.PackedTrace {
	if len(c.Samples) == 0 {
		return nil
	}
	return c.Samples[0].Trace
}

// TaskTrace returns repetition 0's task trace, or nil, decoding it on
// the first call like Cell.TaskTrace.
func (c *MultiCell) TaskTrace() *taskrt.Trace {
	if c.trace == nil {
		c.trace, _ = c.PackedTrace().Unpack()
	}
	return c.trace
}

// MultiMatrix is a completed multiprogrammed campaign: the co-run cells
// per scheduler kind plus the solo reference matrix the slowdowns are
// computed against.
type MultiMatrix struct {
	CoRun CoRun
	Kinds []Kind
	Cells map[Kind]*MultiCell
	Solo  *Matrix
}

// Slowdown returns mean(co-run makespan of program pi)/mean(solo elapsed
// of its benchmark) under kind k — the paper-style co-run degradation
// factor (1.0 = no interference; higher is worse). Returns 0 when either
// side is missing.
func (mm *MultiMatrix) Slowdown(k Kind, pi int) float64 {
	c := mm.Cells[k]
	if c == nil || len(c.Samples) == 0 || pi >= len(c.Samples[0].Programs) {
		return 0
	}
	solo := mm.Solo.Cell(c.Samples[0].Programs[pi].Bench, k)
	if solo == nil {
		return 0
	}
	soloMean := stats.Mean(solo.Times())
	if soloMean == 0 {
		return 0
	}
	return stats.Mean(c.Makespans(pi)) / soloMean
}

// soloConfig strips the multi descriptor so the reference cells are
// ordinary solo units (identical cache keys to a plain solo campaign) and
// drops per-rep tracing: the solo phase exists for the makespan
// denominator, not for trace export.
func soloConfig(cfg Config) Config {
	cfg.Multi = nil
	cfg.TraceTasks = false
	return cfg
}

// multiUnitConfig normalizes the fields that do not apply to co-run units
// (attribution is a solo-program report; see multi key normalization in
// cache.go).
func multiUnitConfig(cfg Config) Config {
	cfg.Attr = false
	return cfg
}

// RunMulti executes the multiprogrammed campaign cfg.Multi describes for
// the given scheduler kinds: first the solo reference campaign over the
// distinct benchmarks, then one co-run workload per (kind, repetition).
// progress, if non-nil, is called as each co-run cell is enqueued.
func RunMulti(kinds []Kind, cfg Config, progress func(k Kind)) (*MultiMatrix, error) {
	benches, err := cfg.Multi.resolve()
	if err != nil {
		return nil, err
	}

	// Solo reference phase: each distinct benchmark once.
	var distinct []workloads.Benchmark
	seen := map[string]bool{}
	for _, b := range benches {
		if !seen[b.Name] {
			seen[b.Name] = true
			distinct = append(distinct, b)
		}
	}
	solo, err := Run(distinct, kinds, soloConfig(cfg), nil)
	if err != nil {
		return nil, err
	}

	mm := &MultiMatrix{
		CoRun: *cfg.Multi,
		Kinds: kinds,
		Cells: make(map[Kind]*MultiCell),
		Solo:  solo,
	}
	scenario := cfg.Multi.Scenario()
	cells := make([]*MultiCell, len(kinds))
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if progress != nil {
			progress(k)
		}
		cells[i] = &MultiCell{Kind: k, Samples: make([]MultiSample, cfg.Reps)}
		mm.Cells[k] = cells[i]
		names[i] = scenario + "/" + k.String()
	}
	err = fanOut(cfg, "multi:"+scenario, names, nil, func(ci, rep int) (*obs.Snapshot, *obs.AttrSnapshot, error) {
		s, err := RunMultiOne(benches, cells[ci].Kind, cfg, rep)
		cells[ci].Samples[rep] = s
		return s.Obs, nil, err
	})
	if err != nil {
		return nil, err
	}
	return mm, nil
}

// RunMultiOne executes one co-run repetition: every benchmark copy
// submitted as a workload program on a fresh machine. Cache-aware like
// RunOne: units are content-addressed by the co-run descriptor plus the
// usual inputs.
func RunMultiOne(benches []workloads.Benchmark, k Kind, cfg Config, rep int) (MultiSample, error) {
	cfg = multiUnitConfig(cfg)
	return cachedUnit(cfg, "", k.String(), rep, func() (MultiSample, error) {
		var res *taskrt.WorkloadResult
		newSched := func() taskrt.Scheduler { return NewScheduler(k) }
		out, err := runUnit(cfg.Multi.Scenario(), k.String(), newSched, cfg, rep, func(m *machine.Machine) func(*taskrt.Runtime) error {
			w := workloads.CoRunWorkload(m, benches, cfg.Class, cfg.Multi.ArrivalSpreadSec)
			return func(rt *taskrt.Runtime) (err error) {
				res, err = rt.RunWorkload(w)
				return err
			}
		})
		if err != nil {
			return MultiSample{}, err
		}
		s := MultiSample{ElapsedSec: float64(res.Elapsed), Obs: out.obs, Trace: out.trace}
		for i, pr := range res.Programs {
			s.Programs = append(s.Programs, ProgramSample{
				Program:     pr.Name,
				Bench:       benches[i].Name,
				ArrivalSec:  pr.ArrivalSec,
				StartSec:    pr.StartSec,
				MakespanSec: pr.MakespanSec,
				Tasks:       pr.TasksExecuted,
			})
		}
		return s, nil
	})
}

// ReportMulti prints the co-run table: per scheduler kind, each program's
// mean makespan next to its solo mean and the resulting slowdown.
func ReportMulti(w io.Writer, mm *MultiMatrix) error {
	fmt.Fprintf(w, "Co-run campaign: %s (arrival spread %gs)\n",
		mm.CoRun.Scenario(), mm.CoRun.ArrivalSpreadSec)
	fmt.Fprintln(w, "(per-program makespan vs running the benchmark alone; slowdown 1.0 = no interference)")
	fmt.Fprintf(w, "%-14s %-10s %-8s %14s %12s %10s\n",
		"kind", "program", "bench", "makespan(s)", "solo(s)", "slowdown")
	for _, k := range mm.Kinds {
		c := mm.Cells[k]
		if c == nil || len(c.Samples) == 0 {
			return fmt.Errorf("multi: missing cell for %s", k)
		}
		for pi, p := range c.Samples[0].Programs {
			solo := mm.Solo.Cell(p.Bench, k)
			if solo == nil {
				return fmt.Errorf("multi: missing solo reference %s/%s", p.Bench, k)
			}
			fmt.Fprintf(w, "%-14s %-10s %-8s %14.4f %12.4f %9.3fx\n",
				k, p.Program, p.Bench, stats.Mean(c.Makespans(pi)),
				stats.Mean(solo.Times()), mm.Slowdown(k, pi))
		}
		fmt.Fprintf(w, "%-14s %-10s %-8s %14.4f   (workload elapsed, arrival→last barrier)\n",
			k, "overall", "", stats.Mean(c.Elapsed()))
	}
	return nil
}
