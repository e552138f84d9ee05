// Command sweep runs sensitivity curves: one benchmark under the baseline
// and ILAN across a range of machine-model parameter values (contention
// coefficients, bandwidths), printing how the speedup and the molded
// thread count respond — the evidence behind the calibration choices in
// DESIGN.md §5.
//
// Usage:
//
//	sweep -bench CG -param beta -values 0,0.0003,0.001,0.003
//	sweep -bench SP -param controllerbw -values 30e9,45e9,60e9 -reps 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obsserve"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// exitInterrupted matches ilanexp: a SIGINT'd sweep stops dispatching,
// finishes in-flight units (committing them to the cache), and exits with
// this code so a rerun of the same command resumes from the cache.
const exitInterrupted = 3

func main() {
	bench := flag.String("bench", "CG", "benchmark to sweep")
	param := flag.String("param", "beta", "parameter: alpha|beta|controllerbw|corebw|linkbw")
	valuesArg := flag.String("values", "0,0.0003,0.001,0.003", "comma-separated parameter values")
	reps := flag.Int("reps", 2, "repetitions per point")
	jobs := flag.Int("jobs", 0, "parallel workers for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	class := flag.String("class", "test", "benchmark scale: paper|test")
	seed := flag.Uint64("seed", 7, "base seed")
	metrics := flag.Bool("metrics", false, "collect observability metrics; ILAN steal split rides along per point")
	traceDecisions := flag.Bool("trace-decisions", false, "record every ILAN configuration decision (implies -metrics)")
	attr := flag.Bool("attr", false, "collect virtual-time attribution; ilan_attr_* series ride along on the -serve /metrics endpoint")
	serve := flag.String("serve", "", "serve live sweep progress over HTTP on this address (e.g. :8080 or 127.0.0.1:0)")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve monitor up this long after the sweep finishes")
	cacheOn := flag.Bool("cache", false, "memoize per-unit results in a content-addressed on-disk cache (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "", "campaign cache directory (implies -cache; default .ilan-cache)")
	noCache := flag.Bool("no-cache", false, "disable the campaign cache even when -cache/-cache-dir is given")
	cacheMaxMB := flag.Int("cache-max-mb", 1024, "campaign cache size cap in MiB before LRU eviction (0 = unbounded)")
	flag.Parse()

	// Flag-value errors exit with code 2, runtime failures with 1 — the
	// same convention as ilanexp.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -jobs must be >= 0 (got %d)\n", *jobs)
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "sweep: -reps must be >= 1 (got %d)\n", *reps)
		os.Exit(2)
	}
	if *cacheMaxMB < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -cache-max-mb must be >= 0 (got %d)\n", *cacheMaxMB)
		os.Exit(2)
	}
	b, ok := workloads.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	sweepParam, err := harness.ParseSweepParam(*param)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	var values []float64
	for _, s := range strings.Split(*valuesArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: bad value %q: %v\n", s, err)
			os.Exit(2)
		}
		values = append(values, v)
	}
	cls, err := workloads.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	cfg := harness.Config{
		Class:          cls,
		Reps:           *reps,
		Seed:           *seed,
		Jobs:           *jobs,
		Noise:          machine.NoiseConfig{Enabled: false},
		Topo:           topology.Zen4Vera(),
		Metrics:        *metrics,
		TraceDecisions: *traceDecisions,
		Attr:           *attr,
	}

	// As in ilanexp: the monitor only observes, so sweep output is
	// identical with or without -serve.
	if *serve != "" {
		track := harness.NewTracker()
		cfg.Track = track
		srv := obsserve.New(track)
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving live sweep monitor on http://%s\n", addr)
		if *serveLinger > 0 {
			defer time.Sleep(*serveLinger)
		}
	}

	// Campaign cache: same flags and semantics as ilanexp.
	finishCache := func() {}
	if (*cacheOn || *cacheDir != "") && !*noCache {
		dir := *cacheDir
		if dir == "" {
			dir = ".ilan-cache"
		}
		cc, err := cellcache.Open(dir, int64(*cacheMaxMB)<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		cfg.Cache = cc
		finishCache = func() {
			cc.Flush()
			st := cc.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions, %d errors (%s)\n",
				st.Hits, st.Misses, st.Evictions, st.Errors, dir)
		}
		defer finishCache()
	}

	// Graceful SIGINT: stop dispatching, finish in-flight units, exit with
	// the resume code; a second Ctrl-C aborts hard.
	cancel := harness.NewCanceler()
	cfg.Cancel = cancel
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr,
			"sweep: interrupt — finishing in-flight units (press Ctrl-C again to abort hard)")
		cancel.Cancel()
		signal.Stop(sigc)
	}()

	// The progress callback now fires as each value's last unit completes
	// (completion order), not when the point is merely enqueued.
	points, err := harness.Sweep(b, sweepParam, values, cfg,
		func(v float64) { fmt.Fprintf(os.Stderr, "%s = %g done\n", *param, v) })
	if err != nil {
		if errors.Is(err, harness.ErrInterrupted) {
			finishCache()
			fmt.Fprintln(os.Stderr, "sweep: interrupted; rerun the same command to resume from the cache")
			os.Exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	harness.ReportSweep(os.Stdout, b.Name, sweepParam, points)
}
