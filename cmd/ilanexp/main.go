// Command ilanexp reproduces the paper's evaluation: it runs the seven
// benchmarks under the requested schedulers on the simulated 64-core Zen 4
// machine and prints the rows of the requested figure or table.
//
// Usage:
//
//	ilanexp -exp fig2                # Figure 2 (ILAN vs baseline speedup)
//	ilanexp -exp all -reps 30        # every figure and table, paper setup
//	ilanexp -exp all -jobs 8         # same campaign across 8 workers
//	ilanexp -exp fig6 -bench CG,FT   # subset of benchmarks
//	ilanexp -exp fig2 -class test    # reduced scale (fast smoke run)
//	ilanexp -exp oracle -bench CG    # best fixed configuration vs ILAN's search
//	ilanexp -exp sweep -bench SP -param controllerbw -values 30e9,45e9,60e9
//	                                 # sensitivity to one machine-model parameter
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/fsatomic"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obsserve"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// exitInterrupted is the exit code for a gracefully interrupted campaign
// (SIGINT): dispatch stopped, in-flight units finished and were committed
// to the cache, no -out was written. Rerunning the same command with the
// same -cache-dir resumes from the completed units. Distinct from 1
// (runtime failure) and 2 (flag error) so scripts can tell them apart.
const exitInterrupted = 3

func main() {
	exp := flag.String("exp", "fig2", "experiment: fig2|fig3|fig4|table1|fig5|fig6|affinity|counters|related|oracle|sweep|multi|all")
	reps := flag.Int("reps", 30, "repetitions per (benchmark, scheduler) pair")
	jobs := flag.Int("jobs", 0, "parallel workers for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	class := flag.String("class", "paper", "benchmark scale: paper|test")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all; -exp sweep takes one, default CG)")
	seed := flag.Uint64("seed", 2025, "base random seed")
	quiet := flag.Bool("q", false, "suppress progress output")
	chart := flag.Bool("chart", false, "render results as ASCII bar charts")
	topo := flag.String("topo", "zen4", "machine topology: zen4|1socket|4socket|smalltest")
	disturb := flag.Int("disturb", -1, "inject a sustained external interferer on this NUMA node (dynamic-asymmetry extension)")
	out := flag.String("out", "", "also write the campaign as JSON (for resultdiff)")
	label := flag.String("label", "", "label stored in the -out file")
	in := flag.String("in", "", "render reports from a saved campaign JSON instead of running")
	metrics := flag.Bool("metrics", false, "collect observability metrics; merged per cell into the -out JSON (-exp sweep: ILAN's steal split per point)")
	traceDecisions := flag.Bool("trace-decisions", false, "record every ILAN configuration decision (implies -metrics)")
	serve := flag.String("serve", "", "serve live campaign progress over HTTP on this address (e.g. :8080 or 127.0.0.1:0)")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve monitor up this long after the campaign finishes")
	perfetto := flag.String("perfetto", "", "write rep 0's execution trace as Perfetto (Chrome trace-event) JSON to this file (implies -metrics -trace-decisions)")
	attrOut := flag.String("attr", "", "collect virtual-time attribution and write the per-cell report JSON to this file (output-neutral: -out/-perfetto bytes are identical either way)")
	corun := flag.String("corun", "", "comma-separated benchmarks to co-run as one workload (-exp multi; default CG,FT)")
	spread := flag.Float64("spread", 0, "spread co-run program arrivals over this many seconds (-exp multi)")
	param := flag.String("param", "beta", "machine-model parameter to sweep (-exp sweep): alpha|beta|controllerbw|corebw|linkbw")
	valuesArg := flag.String("values", "0,0.0003,0.001,0.003", "comma-separated parameter values (-exp sweep)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap-allocation profile to this file at exit")
	cacheOn := flag.Bool("cache", false, "memoize per-unit results in a content-addressed on-disk cache (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "", "campaign cache directory (implies -cache; default .ilan-cache)")
	noCache := flag.Bool("no-cache", false, "disable the campaign cache even when -cache/-cache-dir is given")
	cacheMaxMB := flag.Int("cache-max-mb", 1024, "campaign cache size cap in MiB before LRU eviction (0 = unbounded)")
	flag.Parse()

	// Flag-value errors exit with code 2 (matching flag.Parse's own
	// convention); runtime failures exit with 1.
	if *jobs < 0 {
		die(2, fmt.Sprintf("-jobs must be >= 0 (got %d)", *jobs))
	}
	if *reps < 1 {
		die(2, fmt.Sprintf("-reps must be >= 1 (got %d)", *reps))
	}
	if *cacheMaxMB < 0 {
		die(2, fmt.Sprintf("-cache-max-mb must be >= 0 (got %d)", *cacheMaxMB))
	}
	// A flag the chosen experiment never reads is a usage error too, so
	// asking the oracle study for a -out file cannot exit 0 and write none.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	study := *exp == "oracle" || *exp == "sweep"
	for _, r := range []struct {
		flags []string
		ok    bool
		why   string
	}{
		{[]string{"corun", "spread"}, *exp == "multi", "requires -exp multi"},
		{[]string{"param", "values"}, *exp == "sweep", "requires -exp sweep"},
		{[]string{"out", "perfetto", "attr", "chart", "in"}, !study, "does not apply to -exp " + *exp},
	} {
		for _, name := range r.flags {
			if set[name] && !r.ok {
				die(2, "-"+name+" "+r.why)
			}
		}
	}
	var kinds []harness.Kind
	if !study {
		var err error
		if kinds, err = harness.KindsFor(*exp); err != nil {
			die(2, err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ilanexp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ilanexp:", err)
			}
		}()
	}

	cfg := harness.DefaultConfig()
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Jobs = *jobs
	cfg.Metrics = *metrics
	cfg.TraceDecisions = *traceDecisions
	cfg.Attr = *attrOut != ""
	if *perfetto != "" {
		// The exporter needs the task trace plus the decision trace; turn
		// both on rather than failing on a missing flag combination.
		cfg.TraceTasks = true
		cfg.TraceDecisions = true
	}

	// The live monitor observes the campaign through a Tracker the pool
	// publishes into; it never feeds back, so -out JSON is byte-identical
	// with or without -serve.
	if *serve != "" {
		track := harness.NewTracker()
		cfg.Track = track
		srv := obsserve.New(track)
		addr, err := srv.Start(*serve)
		if err != nil {
			die(1, err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving live campaign monitor on http://%s\n", addr)
		if *serveLinger > 0 {
			defer time.Sleep(*serveLinger)
		}
	}
	spec, ok := topology.Presets()[*topo]
	if !ok {
		die(2, fmt.Sprintf("unknown topology %q", *topo))
	}
	cfg.Topo = spec
	if *disturb >= 0 {
		cfg.Disturb = &machine.Disturb{Node: *disturb}
	}
	cls, err := workloads.ParseClass(*class)
	if err != nil {
		die(2, err)
	}
	cfg.Class = cls

	if *exp == "multi" {
		list := *corun
		if list == "" {
			list = "CG,FT"
		}
		co := &harness.CoRun{ArrivalSpreadSec: *spread}
		for _, name := range strings.Split(list, ",") {
			co.Benches = append(co.Benches, strings.TrimSpace(name))
		}
		if *spread < 0 {
			die(2, fmt.Sprintf("-spread must be >= 0 (got %g)", *spread))
		}
		cfg.Multi = co
	}

	benches := workloads.All()
	if *exp == "sweep" && *benchList == "" {
		*benchList = "CG"
	}
	if *benchList != "" {
		var subset []workloads.Benchmark
		for _, name := range strings.Split(*benchList, ",") {
			b, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				die(2, fmt.Sprintf("unknown benchmark %q", name))
			}
			subset = append(subset, b)
		}
		benches = subset
	}

	var sweepParam harness.SweepParam
	var values []float64
	if *exp == "sweep" {
		if len(benches) != 1 {
			die(2, "-exp sweep takes one -bench")
		}
		if sweepParam, err = harness.ParseSweepParam(*param); err != nil {
			die(2, err)
		}
		for _, v := range strings.Split(*valuesArg, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				die(2, fmt.Sprintf("bad -values entry %q: %v", v, err))
			}
			values = append(values, f)
		}
		// A sensitivity curve isolates one parameter's effect: with the
		// machine's noise on, run-to-run jitter would blur the small
		// differences between neighbouring values at a handful of reps.
		cfg.Noise = machine.NoiseConfig{}
	}

	// The campaign cache and graceful interruption are wired after every
	// flag is validated, so a usage error never creates a cache directory.
	// finishCache runs on every exit path that may have touched the cache
	// (os.Exit skips defers, so the interrupted path calls it explicitly).
	finishCache := func() {}
	if (*cacheOn || *cacheDir != "") && !*noCache {
		dir := *cacheDir
		if dir == "" {
			dir = ".ilan-cache"
		}
		cc, err := cellcache.Open(dir, int64(*cacheMaxMB)<<20)
		if err != nil {
			die(1, err)
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
	// fail exits for a campaign error: an interrupted campaign flushes the
	// cache and exits with the resume code, anything else exits 1.
	fail := func(what string, err error) {
		if !errors.Is(err, harness.ErrInterrupted) {
			die(1, err)
		}
		finishCache()
		if cfg.Cache != nil {
			fmt.Fprintf(os.Stderr,
				"ilanexp: %s interrupted; completed units are cached — rerun the same command to resume\n", what)
		} else {
			fmt.Fprintf(os.Stderr,
				"ilanexp: %s interrupted (run with -cache to make interrupted campaigns resumable)\n", what)
		}
		os.Exit(exitInterrupted)
	}

	// First SIGINT: stop dispatching new units, let in-flight ones finish
	// and commit to the cache, then exit with the resume code. A second
	// SIGINT falls back to the default handler (hard kill).
	cancel := harness.NewCanceler()
	cfg.Cancel = cancel
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr,
			"ilanexp: interrupt — finishing in-flight units (press Ctrl-C again to abort hard)")
		cancel.Cancel()
		signal.Stop(sigc)
	}()

	if *in != "" {
		saved, err := results.ReadFile(*in)
		if err != nil {
			die(1, err)
		}
		if *exp == "multi" {
			mm := saved.ToMultiMatrix()
			if mm == nil {
				die(1, "results file holds no multi campaign")
			}
			if err := harness.ReportMulti(os.Stdout, mm); err != nil {
				die(1, err)
			}
			return
		}
		report(*exp, saved.ToMatrix(), *chart)
		return
	}

	switch *exp {
	case "oracle":
		res, err := harness.RunOracle(benches, cfg, func(bench string, threads int, full bool) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "oracle %-8s threads=%-3d full=%v\n", bench, threads, full)
			}
		})
		if err != nil {
			fail("oracle study", err)
		}
		harness.ReportOracle(os.Stdout, res)
		return
	case "sweep":
		points, err := harness.Sweep(benches[0], sweepParam, values, cfg, func(v float64) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "%s = %g done\n", sweepParam, v)
			}
		})
		if err != nil {
			fail("sweep", err)
		}
		harness.ReportSweep(os.Stdout, benches[0].Name, sweepParam, points)
		return
	}

	queued := func(name string, k harness.Kind) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "queued %-8s %-12s (%d reps, %d jobs)\n",
				name, k, cfg.Reps, harness.DefaultJobs(cfg.Jobs))
		}
	}
	start := time.Now()
	// mx holds the solo cells: the report's for a solo campaign, the solo
	// reference's for a co-run one.
	var (
		mx *harness.Matrix
		mm *harness.MultiMatrix
	)
	if *exp == "multi" {
		mm, err = harness.RunMulti(kinds, cfg, func(k harness.Kind) { queued(cfg.Multi.Scenario(), k) })
		if err != nil {
			fail("multi campaign", err)
		}
		mx = mm.Solo
	} else {
		mx, err = harness.Run(benches, kinds, cfg, queued)
		if err != nil {
			fail("campaign", err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if mm != nil {
		if err := harness.ReportMulti(os.Stdout, mm); err != nil {
			die(1, err)
		}
	} else {
		report(*exp, mx, *chart)
	}

	// Every output file is written atomically (temp + rename): a crash or
	// SIGINT mid-encode must not clobber the previous good file with
	// truncated JSON.
	save := func(path, what string, write func(io.Writer) error) {
		if err := fsatomic.WriteFile(path, write); err != nil {
			die(1, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s written to %s\n", what, path)
		}
	}
	// The Perfetto export is the results file's pick: its first traced
	// ILAN cell (a co-run campaign's solo reference cells carry no trace).
	if *out != "" || *perfetto != "" {
		var file *results.File
		if mm != nil {
			file = results.FromMulti(mm, cfg, *label)
		} else {
			file = results.FromMatrix(mx, cfg, *label)
		}
		if *out != "" {
			save(*out, "campaign", file.Write)
		}
		if *perfetto != "" {
			save(*perfetto, "perfetto trace", func(w io.Writer) error { return file.WritePerfetto(w, "") })
		}
	}
	if *attrOut != "" {
		// The attribution report is a sidecar results.File (attr-only
		// cells). Co-run units do not collect attribution, so a co-run
		// campaign's sidecar carries its solo reference cells' reports.
		file := results.AttrFromMatrix(mx, cfg, *label)
		if file == nil {
			die(1, "no attribution collected (internal error: -attr should imply attribution)")
		}
		save(*attrOut, "attribution report", file.Write)
	}
}

// die prints msg to stderr and exits with code: 2 for a flag error, 1 for
// a runtime failure.
func die(code int, msg any) {
	fmt.Fprintln(os.Stderr, "ilanexp:", msg)
	os.Exit(code)
}

// report prints experiment exp's tables from mx, then its ASCII charts
// when asked (table1 has none).
func report(exp string, mx *harness.Matrix, chart bool) {
	if err := harness.Report(os.Stdout, exp, mx); err != nil {
		die(1, err)
	}
	if chart && exp != "table1" {
		fmt.Println()
		if err := harness.RenderChart(os.Stdout, exp, mx); err != nil {
			die(1, err)
		}
	}
}
