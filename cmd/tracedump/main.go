// Command tracedump runs one repetition of a benchmark through the harness
// unit with task-event tracing enabled and writes the execution trace
// (every task's placement, timing, and steal provenance, plus taskloop
// boundaries) as JSON or JSON-lines — the raw material for timelines,
// placement heatmaps and steal-flow analysis.
//
// Usage:
//
//	tracedump -bench CG -sched ilan -o cg.jsonl
//	tracedump -bench FT -sched baseline -format json -o ft.json
//	tracedump -bench SP                  # summary only, no file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ilan-sched/ilan/internal/fsatomic"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/timeline"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

func main() {
	bench := flag.String("bench", "CG", "benchmark to trace")
	schedName := flag.String("sched", "ilan", "scheduler kind: baseline|ilan|ilan-nomold|worksharing|affinity|ilan-counters|shepherd")
	class := flag.String("class", "test", "benchmark scale: paper|test")
	out := flag.String("o", "", "output file (omit for summary only)")
	format := flag.String("format", "jsonl", "output format: jsonl|json")
	seed := flag.Uint64("seed", 1, "base seed (the harness derives the machine seed from it)")
	showTimeline := flag.Bool("timeline", false, "render an ASCII per-node occupancy timeline")
	tlWidth := flag.Int("width", 100, "timeline width in columns")
	flag.Parse()

	b, ok := workloads.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracedump: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	kind, ok := harness.KindFromString(*schedName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracedump: unknown scheduler %q\n", *schedName)
		os.Exit(2)
	}
	cls, err := workloads.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
	}

	// One traced repetition through the harness unit: repetition 0 is the
	// one that records the task trace.
	cfg := harness.Config{Class: cls, Reps: 1, Seed: *seed, TraceTasks: true}
	sample, err := harness.RunOne(b, kind, cfg, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
	trace := sample.Trace
	topo := topology.MustNew(cfg.TopoSpec())

	fmt.Printf("%s under %s: %.4f virtual seconds\n", b.Name, kind, sample.ElapsedSec)
	fmt.Println(trace.Summary(topo.NumNodes()))

	if *showTimeline {
		fmt.Println()
		err := timeline.Render(os.Stdout, trace, timeline.Options{
			Width:  *tlWidth,
			ByNode: true,
			Cores:  topo.NumCores(),
			Nodes:  topo.NumNodes(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(1)
		}
	}

	if *out == "" {
		return
	}
	// Pick the encoder before touching the filesystem (a bad -format is a
	// flag error, exit 2), then write atomically: a crash or SIGINT
	// mid-encode must never leave truncated JSON under the output name or
	// clobber a previous good trace.
	var encode func(io.Writer) error
	switch *format {
	case "json":
		encode = trace.WriteJSON
	case "jsonl":
		encode = trace.WriteJSONL
	default:
		fmt.Fprintf(os.Stderr, "tracedump: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err := fsatomic.WriteFile(*out, encode); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
	fmt.Printf("trace written to %s\n", *out)
}
