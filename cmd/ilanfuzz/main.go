// Command ilanfuzz drives randomized simulator runs under the
// internal/simcheck invariant checker and metamorphic oracles — the
// long-running counterpart of the native `go test -fuzz` targets, for
// soak runs that need no fuzzing engine:
//
//	go run ./cmd/ilanfuzz -runs 500
//
// Every run draws a random (topology, machine, workload, scheduler)
// combination, executes it with invariants checked, and re-executes it
// under the oracles that apply: determinism (always), machine-seed
// independence at noise=0 (steal-free schedulers), and node-renumbering
// symmetry (scripted StealOff plans, interleaved every few runs). The
// exit status is non-zero if any run violates anything; each violation
// prints the self-contained scenario description needed to replay it.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/simcheck"
)

func main() {
	runs := flag.Int("runs", 200, "randomized scenarios to execute")
	seed := flag.Uint64("seed", 1, "base seed of the scenario stream")
	renumberEvery := flag.Int("renumber-every", 4, "run the node-renumbering oracle every Nth iteration (0 = never)")
	verbose := flag.Bool("v", false, "print every scenario as it runs")
	flag.Parse()

	rng := sim.NewRNG(*seed)
	var failures, loops, tasks, steals, renumbers int

	fail := func(r int, err error) {
		failures++
		fmt.Fprintf(os.Stderr, "FAIL run %d: %v\n", r, err)
	}

	for r := 0; r < *runs; r++ {
		sc := simcheck.GenScenario(rng, *seed+uint64(r)*0x9e3779b97f4a7c15)
		if *verbose {
			fmt.Printf("run %d: %s\n", r, sc)
		}
		res := sc.Run()
		if res.Err != nil {
			fail(r, fmt.Errorf("run error: %w\n  %s", res.Err, sc))
			continue
		}
		if res.Check != nil {
			fail(r, fmt.Errorf("%w\n  %s", res.Check, sc))
		}
		loops += res.Loops
		tasks += res.Tasks
		steals += res.Steals
		if err := simcheck.CheckDeterminism(sc); err != nil {
			fail(r, err)
		}
		if err := simcheck.CheckSeedIndependence(sc); err != nil {
			fail(r, err)
		}
		if *renumberEvery > 0 && r%*renumberEvery == 0 {
			rs := simcheck.GenRenumberScenario(rng)
			pi := simcheck.GenNodePermutation(rng, rs.Spec)
			if err := simcheck.CheckRenumbering(rs, pi); err != nil {
				fail(r, err)
			}
			renumbers++
		}
	}

	fmt.Printf("ilanfuzz: %d runs, %d loops, %d tasks, %d steals checked, %d renumbering checks: ",
		*runs, loops, tasks, steals, renumbers)
	if failures > 0 {
		fmt.Printf("%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}
