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
	ilansched "github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
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
	seed := flag.Uint64("seed", 1, "machine seed")
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

	noiseCfg := machine.NoiseConfig{}
	if *noise {
		noiseCfg = machine.DefaultNoise()
	}

	fmt.Printf("%-14s %12s %10s %12s %12s\n", "scheduler", "time(s)", "speedup", "avg threads", "overhead(ms)")
	var base float64
	for i, k := range kinds {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.Zen4Vera()),
			Seed:  *seed,
			Noise: noiseCfg,
			Alpha: -1,
		})
		prog, err := doc.Build(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loopconv:", err)
			os.Exit(1)
		}
		inst := harness.NewScheduler(k)
		rt := taskrt.New(m, inst, taskrt.DefaultCosts())
		res, err := rt.RunProgram(prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loopconv:", err)
			os.Exit(1)
		}
		el := float64(res.Elapsed)
		if i == 0 {
			base = el
		}
		fmt.Printf("%-14s %12.4f %9.3fx %12.1f %12.3f\n",
			k, el, base/el, res.WeightedAvgThreads, 1e3*res.OverheadSec)

		if il, ok := inst.(*ilansched.Scheduler); ok && *verbose {
			for _, l := range prog.Loops {
				cfg, phase, ok := il.ChosenConfig(l.ID)
				if !ok {
					continue
				}
				fmt.Printf("    loop %-12s phase=%-10v chosen=%v\n", l.Name, phase, cfg)
				tried := il.TriedConfigs(l.ID)
				var widths []int
				for w := range tried {
					widths = append(widths, w)
				}
				sort.Ints(widths)
				for _, w := range widths {
					fmt.Printf("        threads=%-3d mean=%.6f\n", w, tried[w])
				}
			}
		}
	}
}
