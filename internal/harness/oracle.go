package harness

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/obs"
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

// fixedPoint is one oracle configuration as a named solo-unit scheduler:
// ILAN pinned to a width and steal policy. The name keys its cache entries.
func fixedPoint(threads int, full bool) (string, func() taskrt.Scheduler) {
	opts := ilan.DefaultOptions()
	opts.FixedThreads = threads
	opts.FixedStealFull = full
	return fmt.Sprintf("ilan-fixed/%d/%s", threads, stealPolicy(full)),
		func() taskrt.Scheduler { return ilan.MustNew(opts) }
}

// stealPolicy names a steal policy as the oracle report prints it.
func stealPolicy(full bool) string {
	if full {
		return "full"
	}
	return "strict"
}

// RunOracle evaluates every fixed width (in granularity steps of the NUMA
// node size) under both steal policies for each benchmark, and compares the
// best fixed configuration against ILAN's online search — quantifying both
// the headroom of Algorithm 1's non-exhaustive exploration and its cost.
// Every (benchmark, configuration) pair, ILAN and the baseline included, is
// a cell of one campaign whose units are ordinary cached solo units fanned
// across a cfg.Jobs-bounded pool; points keep their enumeration order.
// progress, if non-nil, is called from the calling goroutine as each
// configuration is enqueued.
func RunOracle(benches []workloads.Benchmark, cfg Config,
	progress func(bench string, threads int, full bool)) ([]OracleResult, error) {
	topo := topology.MustNew(cfg.TopoSpec())
	g := topo.NodeSize()
	var pts []OraclePoint
	for threads := g; threads <= topo.NumCores(); threads += g {
		for _, full := range []bool{false, true} {
			pts = append(pts, OraclePoint{Threads: threads, StealFull: full})
		}
	}
	// Each benchmark's cells: its fixed points in order, then ILAN, then
	// the baseline.
	type cell struct {
		bench    workloads.Benchmark
		sched    string
		newSched func() taskrt.Scheduler
		times    []float64
	}
	perBench := len(pts) + 2
	cells := make([]cell, 0, len(benches)*perBench)
	names := make([]string, 0, cap(cells))
	add := func(b workloads.Benchmark, sched string, newSched func() taskrt.Scheduler) {
		cells = append(cells, cell{b, sched, newSched, make([]float64, cfg.Reps)})
		names = append(names, b.Name+"/"+sched)
	}
	for _, b := range benches {
		for _, p := range pts {
			if progress != nil {
				progress(b.Name, p.Threads, p.StealFull)
			}
			sched, newSched := fixedPoint(p.Threads, p.StealFull)
			add(b, sched, newSched)
		}
		for _, k := range []Kind{KindILAN, KindBaseline} {
			add(b, k.String(), func() taskrt.Scheduler { return NewScheduler(k) })
		}
	}
	err := fanOut(cfg, "oracle", names, nil, func(ci, rep int) (*obs.Snapshot, *obs.AttrSnapshot, error) {
		c := &cells[ci]
		s, err := runSolo(c.bench, c.sched, c.newSched, cfg, rep)
		c.times[rep] = s.ElapsedSec
		return s.Obs, s.Attr, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]OracleResult, len(benches))
	for bi, b := range benches {
		bc := cells[bi*perBench : (bi+1)*perBench]
		r := OracleResult{Bench: b.Name}
		for pi, p := range pts {
			p.MeanSec = stats.Mean(bc[pi].times)
			r.Points = append(r.Points, p)
			if r.Best.MeanSec == 0 || p.MeanSec < r.Best.MeanSec {
				r.Best = p
			}
		}
		r.ILANSec = stats.Mean(bc[len(pts)].times)
		r.BaselineSec = stats.Mean(bc[len(pts)+1].times)
		out[bi] = r
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
		fmt.Fprintf(w, "%-8s %9d/%-6s %12.4f %12.4f %12.4f %11.1f%%\n",
			r.Bench, r.Best.Threads, stealPolicy(r.Best.StealFull), r.Best.MeanSec, r.ILANSec,
			r.BaselineSec, 100*r.Efficiency())
	}
}
