// Command obsdump inspects the observability snapshots embedded in a saved
// campaign file (ilanexp -metrics -out). It lists which cells carry
// metrics, and renders one cell's snapshot as a human summary, Prometheus
// text, a folded-stacks profile (flamegraph input), the raw ILAN decision
// trace, or JSON. A cell is named bench/kind (CG/ilan), or scenario/kind
// (CG+FT/ilan) for a co-run cell of an ilanexp -exp multi campaign.
//
// Usage:
//
//	obsdump -in results.json                           # list cells
//	obsdump -in results.json -cell CG/ilan             # summary
//	obsdump -in results.json -cell CG/ilan -format prom
//	obsdump -in results.json -cell CG/ilan -format decisions   # + PTT summary
//	obsdump -in results.json -cell CG/ilan -format folded > cg.folded
//	obsdump -in results.json -cell CG/ilan perfetto > cg.trace.json
//	obsdump -in corun.json -cell CG+FT/ilan perfetto > corun.trace.json
//	obsdump -in attr.json attr                         # attribution tables
//	obsdump -in attr.json -cell CG/ilan attr           # one cell, with loops
//
// The decisions format lists every retained decision, then folds rep 0's
// decisions (ilan.FoldDecisions) into a per-loop PTT summary: the final
// configuration and phase, the mean explore-phase score per thread count,
// and the exploration regret — or, for a loop whose first executions the
// ring dropped, a truncation note instead of a regret.
//
// The perfetto format (also spellable as a trailing argument, as above)
// converts the cell's rep-0 task trace plus its decision trace into
// Chrome trace-event JSON for https://ui.perfetto.dev; the campaign must
// have run with ilanexp -perfetto (or any config that records a task
// trace into the -out file).
//
// The attr format renders the virtual-time attribution reports written by
// ilanexp -attr (DESIGN.md §14): without -cell, a per-scheduler table of
// every cell's task-time decomposition plus comparison bars; with -cell,
// that cell's full breakdown including per-resource interference and the
// per-loop makespan terms, led by each loop's mean execution time
// (MakespanSec/Executions).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/textchart"
)

func main() {
	in := flag.String("in", "", "campaign JSON written by ilanexp -metrics -out (required)")
	cell := flag.String("cell", "", "cell to dump, as bench/kind (e.g. CG/ilan) or co-run scenario/kind (e.g. CG+FT/ilan); empty lists cells")
	format := flag.String("format", "summary", "output: summary|prom|folded|decisions|json|perfetto|attr")
	flag.Parse()

	// A single trailing argument is a format alias (`obsdump -in f.json
	// -cell CG/ilan perfetto`), matching how subcommand-style invocations
	// read; flag parsing stops at the first non-flag, so the alias must
	// come last.
	if flag.NArg() == 1 {
		*format = flag.Arg(0)
	} else if flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "obsdump: unexpected arguments %v\n", flag.Args()[1:])
		os.Exit(2)
	}

	// Flag-value errors exit with code 2, runtime failures with 1 — the
	// same convention as ilanexp and sweep.
	if *in == "" {
		fmt.Fprintln(os.Stderr, "obsdump: -in is required")
		os.Exit(2)
	}
	switch *format {
	case "summary", "prom", "folded", "decisions", "json", "perfetto", "attr":
	default:
		fmt.Fprintf(os.Stderr, "obsdump: unknown format %q (valid: summary, prom, folded, decisions, json, perfetto, attr)\n", *format)
		os.Exit(2)
	}

	file, err := results.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}

	if *format == "attr" {
		// The attr view is cross-cell by design (the point is comparing
		// schedulers); -cell narrows it to one cell's full breakdown.
		if err := writeAttr(file, *cell); err != nil {
			fmt.Fprintln(os.Stderr, "obsdump:", err)
			os.Exit(1)
		}
		return
	}
	if *cell == "" {
		listCells(file)
		return
	}
	target := file.View(*cell)
	if target == nil {
		fmt.Fprintf(os.Stderr, "obsdump: no cell %q in %s (try obsdump -in %s to list)\n", *cell, *in, *in)
		os.Exit(1)
	}
	snap := target.Obs
	if snap == nil && *format != "perfetto" {
		fmt.Fprintf(os.Stderr, "obsdump: cell %q has no observability data (rerun the campaign with -metrics)\n", *cell)
		os.Exit(1)
	}

	switch *format {
	case "perfetto":
		err = file.WritePerfetto(os.Stdout, *cell)
	case "prom":
		err = snap.WritePrometheus(os.Stdout)
	case "folded":
		err = snap.WriteFolded(os.Stdout)
	case "json":
		err = snap.WriteJSON(os.Stdout)
	case "decisions":
		err = writeDecisions(snap)
	default:
		err = writeSummary(*cell, snap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

func listCells(file *results.File) {
	fmt.Printf("%-24s %6s %10s %10s %10s\n", "cell", "runs", "counters", "gauges", "decisions")
	for _, v := range file.Views() {
		if v.Obs == nil {
			fmt.Printf("%-24s %s\n", v.Name, "(no observability data)")
			continue
		}
		fmt.Printf("%-24s %6d %10d %10d %10d\n", v.Name,
			v.Obs.Runs, len(v.Obs.Counters), len(v.Obs.Gauges), v.Obs.DecisionsTotal)
	}
}

func writeSummary(name string, s *obs.Snapshot) error {
	fmt.Printf("cell %s: %d runs\n", name, s.Runs)
	dump := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("\n%s:\n", title)
		for _, k := range sortedKeys(m) {
			fmt.Printf("  %-48s %g\n", k, m[k])
		}
	}
	dump("counters (summed over runs)", s.Counters)
	dump("gauges (averaged over runs)", s.Gauges)
	if len(s.Histograms) > 0 {
		fmt.Printf("\nhistograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Printf("  %-48s count=%d mean=%g p50=%g p95=%g p99=%g\n",
				k, h.Count, mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	dump("profile (virtual seconds)", s.Profile)
	if s.DecisionsTotal > 0 {
		fmt.Printf("\ndecisions: %d recorded, %d retained (use -format decisions)\n",
			s.DecisionsTotal, len(s.Decisions))
	}
	return nil
}

func writeDecisions(s *obs.Snapshot) error {
	if s.DecisionsTotal == 0 {
		return fmt.Errorf("no decision trace in this cell (rerun with -trace-decisions)")
	}
	fmt.Printf("%12s %4s %5s %3s %-10s %8s %18s %6s %14s\n",
		"t(virt s)", "rep", "loop", "k", "phase", "threads", "mask", "steal", "score")
	for _, d := range s.Decisions {
		policy := "strict"
		if d.StealFull {
			policy = "full"
		}
		fmt.Printf("%12.6f %4d %5d %3d %-10s %8d %#18x %6s %14.6g\n",
			d.TimeSec, d.Rep, d.LoopID, d.K, d.Phase, d.Threads, d.NodeMask, policy, d.Score)
	}
	if int(s.DecisionsTotal) > len(s.Decisions) {
		fmt.Printf("(%d older decisions were dropped by the per-run ring buffer)\n",
			int(s.DecisionsTotal)-len(s.Decisions))
	}

	// The PTT summary folds repetition 0's decisions back into the
	// per-loop view the live scheduler had at the end of that run.
	rep0 := s.Rep0Decisions()
	loops := map[int]bool{}
	for _, d := range rep0 {
		loops[d.LoopID] = true
	}
	ptt, _ := ilan.FoldDecisions(rep0)
	fmt.Printf("\nPTT summary (rep 0; scores in the objective's unit):\n")
	for _, id := range sortedKeys(loops) {
		cfg, phase, _ := ptt.ChosenConfig(id)
		fmt.Printf("loop %-5d phase=%-10s chosen=%v", id, phase, cfg)
		if extra, mean, ok := ptt.Regret(id); ok {
			fmt.Printf("  regret=%.6g (settled mean %.6g)", extra, mean)
		} else if h := ptt.History(id); h[0].K > 1 {
			fmt.Printf("  regret=n/a (trace starts at k=%d: the ring dropped earlier executions)", h[0].K)
		}
		fmt.Println()
		tried := ptt.TriedConfigs(id)
		for _, th := range sortedKeys(tried) {
			fmt.Printf("    threads=%-3d mean=%.6g\n", th, tried[th])
		}
	}
	return nil
}

// writeAttr renders the virtual-time attribution reports (DESIGN.md §14).
// With cellName empty it prints one row per cell carrying a report — the
// per-scheduler comparison view — followed by bars of the two terms a
// scheduler actually controls (interference stall and locality penalty).
// With a cell named it adds that cell's per-resource interference split
// and per-loop makespan decomposition.
func writeAttr(file *results.File, cellName string) error {
	var cells []results.View
	for _, v := range file.Views() {
		if v.Attr != nil && (cellName == "" || v.Name == cellName) {
			cells = append(cells, v)
		}
	}
	if len(cells) == 0 {
		if cellName != "" {
			return fmt.Errorf("cell %q has no attribution report (rerun the campaign with ilanexp -attr)", cellName)
		}
		return fmt.Errorf("no attribution reports in this file (rerun the campaign with ilanexp -attr)")
	}

	fmt.Printf("task-time attribution (virtual seconds, summed over reps):\n\n")
	fmt.Printf("%-24s %8s %12s %12s %12s %12s %12s %12s %12s\n",
		"cell", "tasks", "elapsed", "ideal", "corespeed", "idealmem", "locality", "interf", "residual")
	for _, c := range cells {
		t := c.Attr.Task
		fmt.Printf("%-24s %8d %12.6g %12.6g %12.6g %12.6g %+12.6g %12.6g %12.3g\n",
			c.Name, t.Tasks, t.ElapsedSec, t.IdealComputeSec,
			t.CoreSpeedSec, t.IdealMemorySec, t.LocalitySec, t.InterferenceSec, t.ResidualSec)
	}

	// The comparison bars plot the two signed-or-positive levers a
	// scheduler pulls: interference stall (always >= 0) and the locality
	// penalty it paid (clamped at zero for the bar; the signed value is in
	// the table — a negative locality term means multi-controller
	// spreading beat the single-local-controller counterfactual).
	rows := make([]string, 0, len(cells))
	interf := make([]float64, 0, len(cells))
	locality := make([]float64, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, c.Name)
		interf = append(interf, c.Attr.Task.InterferenceSec)
		locality = append(locality, math.Max(0, c.Attr.Task.LocalitySec))
	}
	chart := textchart.Chart{
		Title: "\ninterference stall vs locality penalty:",
		Rows:  rows,
		Series: []textchart.Series{
			{Label: "interference", Values: interf},
			{Label: "locality", Values: locality},
		},
		Unit: "s",
	}
	if err := chart.Render(os.Stdout); err != nil {
		// A campaign where every term is zero (pure-compute workload) has
		// nothing to plot; the table above already says so.
		fmt.Printf("\n(no positive interference/locality terms to plot)\n")
	}

	if cellName == "" {
		return nil
	}
	a := cells[0].Attr // the named cell, the only one in cells
	if len(a.Interference) > 0 {
		fmt.Printf("\ninterference stall by bottleneck resource:\n")
		for _, n := range sortedKeys(a.Interference) {
			fmt.Printf("  %-24s %12.6g s\n", n, a.Interference[n])
		}
	}
	if len(a.Loops) > 0 {
		fmt.Printf("\nloop makespan attribution (core-seconds):\n\n")
		fmt.Printf("%-16s %6s %10s %12s %12s %12s %12s %12s %12s %12s %12s\n",
			"loop", "execs", "mean(ms)", "core", "select", "task", "steal", "imbal", "barrier", "qwait", "residual")
		for _, n := range sortedKeys(a.Loops) {
			l := a.Loops[n]
			fmt.Printf("%-16s %6d %10.4f %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.3g\n",
				n, l.Executions, 1e3*l.MakespanSec/float64(l.Executions),
				l.CoreSec, l.SelectSec, l.TaskSec, l.StealSec,
				l.ImbalanceSec, l.BarrierSec, l.QueueWaitSec, l.ResidualSec)
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
