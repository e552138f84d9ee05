package harness

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// OraclePoint is one fixed configuration's measured performance.
type OraclePoint struct {
	Threads   int
	StealFull bool
	MeanSec   float64
}

// OracleResult summarizes one benchmark's oracle study.
type OracleResult struct {
	Bench string
	// Points holds every fixed configuration evaluated.
	Points []OraclePoint
	// Best is the fastest fixed configuration (the "oracle").
	Best OraclePoint
	// ILANSec / BaselineSec are the adaptive scheduler's and the default
	// scheduler's mean times on the same machines.
	ILANSec     float64
	BaselineSec float64
}

// Efficiency returns how much of the oracle's performance ILAN's online
// search achieves (oracle time / ILAN time; 1.0 = matches the oracle,
// which includes the oracle paying no exploration cost).
func (r *OracleResult) Efficiency() float64 {
	if r.ILANSec == 0 {
		return 0
	}
	return r.Best.MeanSec / r.ILANSec
}

// runFixedOnce measures one repetition of a fixed (threads, policy)
// configuration on the machine RunOne would run repetition rep on.
func runFixedOnce(b workloads.Benchmark, threads int, full bool, cfg Config, rep int) (float64, error) {
	m := buildMachine(cfg, rep)
	opts := ilan.DefaultOptions()
	opts.FixedThreads = threads
	opts.FixedStealFull = full
	rt := taskrt.New(m, ilan.MustNew(opts), taskrt.DefaultCosts())
	res, err := rt.RunProgram(b.Build(m, cfg.Class))
	if err != nil {
		return 0, err
	}
	return float64(res.Elapsed), nil
}

// RunOracle evaluates every fixed width (in granularity steps of the NUMA
// node size) under both steal policies for each benchmark, and compares the
// best fixed configuration against ILAN's online search — quantifying both
// the headroom of Algorithm 1's non-exhaustive exploration and its cost.
// The (configuration, rep) units of each benchmark fan out across one
// cfg.Jobs-bounded pool; points keep their enumeration order. progress, if
// non-nil, is called from the calling goroutine as each configuration is
// enqueued.
func RunOracle(benches []workloads.Benchmark, cfg Config,
	progress func(bench string, threads int, full bool)) ([]OracleResult, error) {
	topoSpec := cfg.Topo
	if topoSpec.Sockets == 0 {
		topoSpec = topology.Zen4Vera()
	}
	topo := topology.MustNew(topoSpec)
	g := topo.NodeSize()
	type fixedPoint struct {
		threads int
		full    bool
	}
	var pts []fixedPoint
	for threads := g; threads <= topo.NumCores(); threads += g {
		for _, full := range []bool{false, true} {
			pts = append(pts, fixedPoint{threads: threads, full: full})
		}
	}
	var out []OracleResult
	for _, b := range benches {
		r := OracleResult{Bench: b.Name}
		times := make([][]float64, len(pts))
		for pi, p := range pts {
			if progress != nil {
				progress(b.Name, p.threads, p.full)
			}
			times[pi] = make([]float64, cfg.Reps)
		}
		err := ForEachCancel(cfg.Jobs, len(pts)*cfg.Reps, cfg.Cancel, func(i int) error {
			pi, rep := i/cfg.Reps, i%cfg.Reps
			sec, err := runFixedOnce(b, pts[pi].threads, pts[pi].full, cfg, rep)
			if err != nil {
				return err
			}
			times[pi][rep] = sec
			return nil
		})
		if err != nil {
			return nil, err
		}
		for pi, pt := range pts {
			p := OraclePoint{Threads: pt.threads, StealFull: pt.full,
				MeanSec: stats.Mean(times[pi])}
			r.Points = append(r.Points, p)
			if r.Best.MeanSec == 0 || p.MeanSec < r.Best.MeanSec {
				r.Best = p
			}
		}
		ilanCell, err := RunCell(b, KindILAN, cfg)
		if err != nil {
			return nil, err
		}
		baseCell, err := RunCell(b, KindBaseline, cfg)
		if err != nil {
			return nil, err
		}
		r.ILANSec = stats.Mean(ilanCell.Times())
		r.BaselineSec = stats.Mean(baseCell.Times())
		out = append(out, r)
	}
	return out, nil
}

// ReportOracle prints the oracle study.
func ReportOracle(w io.Writer, results []OracleResult) {
	fmt.Fprintln(w, "Oracle study: best fixed (threads, steal_policy) vs ILAN's online search")
	fmt.Fprintln(w, "(efficiency = oracle time / ILAN time; the oracle pays no exploration cost)")
	fmt.Fprintf(w, "%-8s %16s %12s %12s %12s %12s\n",
		"bench", "oracle config", "oracle(s)", "ilan(s)", "baseline(s)", "efficiency")
	for _, r := range results {
		policy := "strict"
		if r.Best.StealFull {
			policy = "full"
		}
		fmt.Fprintf(w, "%-8s %9d/%-6s %12.4f %12.4f %12.4f %11.1f%%\n",
			r.Bench, r.Best.Threads, policy, r.Best.MeanSec, r.ILANSec,
			r.BaselineSec, 100*r.Efficiency())
	}
}
