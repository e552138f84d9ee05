// Command loopconv runs a declaratively described taskloop application
// under the simulator's schedulers — the reproduction's analogue of the
// paper's `omp for` -> `omp taskloop` conversion tool: the entry point for
// existing data-parallel applications to benefit from ILAN without
// source-level scheduler coupling.
//
// Usage:
//
//	loopconv -f app.json                     # run under every scheduler
//	loopconv -f app.json -sched ilan -v      # one scheduler, verbose PTT
//	loopconv -example > app.json             # print a starter document
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

const exampleDoc = `{
  "name": "example",
  "steps": 30,
  "regions": [
    {"name": "grid", "placement": "blocked"},
    {"name": "vec", "sizeMB": 192, "placement": "blocked"}
  ],
  "loops": [
    {
      "name": "sweep", "iters": 2048, "tasks": 256, "computeMicros": 90,
      "streams": [{"region": "grid", "kbPerIter": 120}]
    },
    {
      "name": "solve", "iters": 768, "tasks": 192, "computeMicros": 150,
      "imbalance": {"blocks": 24, "amplitude": 0.5},
      "spans": [{"region": "vec", "kbPerIter": 200, "pattern": "gather"}]
    }
  ],
  "sequence": ["sweep", "solve"]
}
`

func main() {
	file := flag.String("f", "", "workload description (JSON)")
	schedName := flag.String("sched", "", "run only one scheduler kind: baseline|ilan|ilan-nomold|worksharing|affinity|ilan-counters|shepherd")
	seed := flag.Uint64("seed", 1, "base seed (the harness derives the machine seed from it)")
	noise := flag.Bool("noise", false, "enable the machine noise model")
	verbose := flag.Bool("v", false, "print per-loop PTT outcomes for ILAN runs")
	example := flag.Bool("example", false, "print a starter document and exit")
	flag.Parse()

	if *example {
		fmt.Print(exampleDoc)
		return
	}
	if *file == "" {
		fmt.Fprintln(os.Stderr, "loopconv: -f <file> is required (or -example)")
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopconv:", err)
		os.Exit(1)
	}
	doc, err := looplang.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopconv:", err)
		os.Exit(1)
	}

	kinds := []harness.Kind{harness.KindBaseline, harness.KindWorkSharing,
		harness.KindAffinity, harness.KindILAN, harness.KindILANNoMold}
	if *schedName != "" {
		k, ok := harness.KindFromString(*schedName)
		if !ok {
			fmt.Fprintf(os.Stderr, "loopconv: unknown scheduler %q\n", *schedName)
			os.Exit(2)
		}
		kinds = []harness.Kind{k}
	}

	cfg := harness.Config{Reps: 1, Seed: *seed, Topo: topology.Zen4Vera(), TraceDecisions: *verbose}
	if *noise {
		cfg.Noise = machine.DefaultNoise()
	}
	// Checking the document against the machine's node count here means
	// Build below cannot fail: a bad document exits before any unit runs.
	if err := doc.Validate(topology.MustNew(cfg.Topo).NumNodes()); err != nil {
		fmt.Fprintln(os.Stderr, "loopconv:", err)
		os.Exit(1)
	}
	b := workloads.Benchmark{Name: doc.Name, Build: func(m *machine.Machine, _ workloads.Class) *taskrt.Program {
		prog, err := doc.Build(m)
		if err != nil {
			panic(err) // unreachable: validated above
		}
		return prog
	}}
	mx, err := harness.Run([]workloads.Benchmark{b}, kinds, cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopconv:", err)
		os.Exit(1)
	}

	fmt.Printf("%-14s %12s %10s %12s %12s\n", "scheduler", "time(s)", "speedup", "avg threads", "overhead(ms)")
	var base float64
	for i, k := range kinds {
		s := mx.Cell(doc.Name, k).Samples[0]
		if i == 0 {
			base = s.ElapsedSec
		}
		fmt.Printf("%-14s %12.4f %9.3fx %12.1f %12.3f\n",
			k, s.ElapsedSec, base/s.ElapsedSec, s.WeightedThreads, 1e3*s.OverheadSec)
		if *verbose {
			printPTT(doc, s.Obs)
		}
	}
}

// printPTT prints each loop's PTT outcome folded from the run's decision
// trace; schedulers without a PTT record no decisions and print nothing.
func printPTT(doc *looplang.Document, snap *obs.Snapshot) {
	ptt, truncated := ilan.FoldDecisions(snap.Decisions)
	for i, l := range doc.Loops {
		cfg, phase, ok := ptt.ChosenConfig(i + 1) // Build numbers loops from 1
		if !ok {
			continue
		}
		fmt.Printf("    loop %-12s phase=%-10v chosen=%v\n", l.Name, phase, cfg)
		tried := ptt.TriedConfigs(i + 1)
		widths := make([]int, 0, len(tried))
		for w := range tried {
			widths = append(widths, w)
		}
		sort.Ints(widths)
		for _, w := range widths {
			fmt.Printf("        threads=%-3d mean=%.6f\n", w, tried[w])
		}
	}
	if truncated {
		fmt.Println("    (the decision ring dropped early executions; means cover the retained ones)")
	}
}
