// Command resultdiff compares two persisted experiment campaigns (written
// with `ilanexp -out`) and reports cells whose means moved by more than
// the tolerance — the regression gate for changes to the simulator,
// runtime, or scheduler. A solo cell (bench/kind) is gated on its mean
// execution time, scheduling overhead and selected thread count; a co-run
// cell of an `-exp multi` campaign (scenario/kind, e.g. CG+FT/ilan) on
// its workload elapsed time and each program's mean arrival, start and
// makespan.
//
// Usage:
//
//	resultdiff -tol 0.05 before.json after.json
//	resultdiff -obs before.json after.json     # also gate on telemetry
//
// With -obs, per-cell merged observability snapshots are compared too:
// counter (and histogram-count) drift beyond -obstol, plus metric names
// present in only one file — so CI catches silent telemetry regressions,
// not just time/threads drift. Attribution reports (ilanexp -attr files,
// or cells carrying attr) are compared term by term under the same
// tolerance and NaN gate; residual terms are NaN-gated but exempt from
// relative drift (they are floating-point closures near zero).
//
// Exit status: 0 when within tolerance, 1 when differences were found,
// 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ilan-sched/ilan/internal/results"
)

func main() {
	tol := flag.Float64("tol", 0.05, "relative tolerance before a change is reported")
	obsGate := flag.Bool("obs", false, "also compare per-cell observability snapshots (counter drift, missing/new metrics)")
	obsTol := flag.Float64("obstol", 0.0, "relative tolerance for -obs counter comparisons")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: resultdiff [-tol 0.05] [-obs [-obstol 0.0]] before.json after.json")
		os.Exit(2)
	}
	load := func(path string) *results.File {
		f, err := results.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resultdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
		return f
	}
	before := load(flag.Arg(0))
	after := load(flag.Arg(1))

	diffs := results.Compare(before, after, *tol)
	var obsDiffs []results.ObsDiff
	if *obsGate {
		obsDiffs = results.CompareObs(before, after, *obsTol)
	}
	if len(diffs) == 0 && len(obsDiffs) == 0 {
		gate := ""
		if *obsGate {
			gate = ", obs gate on"
		}
		fmt.Printf("no differences beyond %.1f%% tolerance (%d cells compared%s)\n",
			*tol*100, len(before.Views()), gate)
		return
	}
	if len(diffs) > 0 {
		fmt.Printf("%d differences beyond %.1f%% tolerance:\n", len(diffs), *tol*100)
		for _, d := range diffs {
			fmt.Println(" ", d)
		}
	}
	if len(obsDiffs) > 0 {
		fmt.Printf("%d observability differences beyond %.1f%% tolerance:\n",
			len(obsDiffs), *obsTol*100)
		for _, d := range obsDiffs {
			fmt.Println(" ", d)
		}
	}
	os.Exit(1)
}
