package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// span collects the host durations of repeated calls into one layer,
// timed from the benchmark's side of the call.
type span []time.Duration

func (s *span) timeErr(f func() error) error {
	t0 := time.Now()
	err := f()
	*s = append(*s, time.Since(t0))
	return err
}

func (s span) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// quantile returns the q-quantile (nearest rank) of the durations.
func (s span) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(span(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[int(q*float64(len(c)-1)+0.5)]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// tracer holds the spans of one or more campaigns. Untraced campaigns
// record the few calls they make into a tracer they then drop.
type tracer struct {
	unit      span // harness.RunOne / RunMultiOne
	build     span // workloads.Benchmark.Build
	results   span // results.FromMatrix/FromMulti + File.Write
	read      span // results.Read of the written file
	chrome    span // chrometrace.Write
	run       span // taskrt.Runtime.RunProgram / RunWorkload
	plan      span // ILAN Scheduler.Plan
	observe   span // ILAN Scheduler.Observe
	runAllocs uint64
	loops     int
}

// ledger gathers the traced campaigns of a --trace 1 run: their spans
// (summed over campaigns), CPU profiles, host times and work counters.
type ledger struct {
	dir      string
	tr       tracer
	profiles []string
	runs     []timed // the traced campaigns
	gcCycles uint64
	probes   int
	first    *outcome           // the first traced campaign
	counters map[string]float64 // its work counters
	// Sizes of the untraced campaign's output files.
	resultsBytes, chromeBytes, cacheBytes int64
}

func newLedger(dir string) *ledger { return &ledger{dir: dir} }

// tracedConfig is the measured campaign with metrics collection and
// attribution on; CI checks both are output-neutral. Attribution covers
// solo units only, so on a co-run it covers the reference phase. A cached
// workload keeps its configuration so that every unit stays a cache hit.
func (w *workload) tracedConfig() harness.Config {
	cfg := w.cfg
	if !w.cached {
		cfg.Metrics = true
		cfg.Attr = true
	}
	return cfg
}

// traceOnce runs the campaign traced after an untraced one of m: unit by
// unit under a CPU profile with spans around every layer call, then a
// probe pass below the harness, outside the profile, that times the
// program builds, the runtime and the ILAN planner. Every unit is checked
// against the untraced campaign, and every traced campaign's work counters
// against the first's.
func (w *workload) traceOnce(l *ledger, m *measurement) error {
	if l.first == nil {
		l.resultsBytes = fileSize(m.dir, resultsName)
		l.chromeBytes = fileSize(m.dir, perfettoName)
		if w.cached {
			var err error
			if l.cacheBytes, err = dirBytes(filepath.Join(m.dir, cacheName)); err != nil {
				return err
			}
		}
	}
	cfg := w.tracedConfig()
	path := filepath.Join(l.dir, fmt.Sprintf("cpu-%d.pprof", len(l.profiles)))
	pf, err := os.Create(path)
	if err != nil {
		return err
	}
	var o *outcome
	t, err := timeCampaign(func() error {
		gc0 := readUint(gcCycles)
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		var err error
		o, err = w.tracedCampaign(cfg, m.dir, &l.tr)
		pprof.StopCPUProfile()
		l.gcCycles += readUint(gcCycles) - gc0
		return err
	})
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.profiles = append(l.profiles, path)
	l.runs = append(l.runs, t)
	fmt.Fprintf(os.Stderr, "perfbench: traced campaign %d: %.3f s wall, %.1f%% stolen\n", len(l.runs), t.wall, 100*t.stolen)

	m.attempted += w.units()
	bad := w.failedUnits(o, true)
	counters := workCounters(o)
	if l.first == nil {
		l.first, l.counters = o, counters
	}
	if o.digest() != m.digest {
		fmt.Fprintf(os.Stderr, "perfbench: traced campaign %d differs from the untraced ones\n", len(l.runs))
		bad = w.units()
	}
	if name := counterDiff(counters, l.counters); name != "" {
		fmt.Fprintf(os.Stderr, "perfbench: traced campaign %d: counter %s = %g, first traced campaign %g\n",
			len(l.runs), name, counters[name], l.counters[name])
		bad = w.units()
	}
	m.failed += bad
	if err := l.tr.read.timeErr(func() error { return readResults(filepath.Join(m.dir, resultsName)) }); err != nil {
		return err
	}
	bad, err = w.probe(cfg, o, &l.tr)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	l.probes++
	m.attempted += w.units()
	m.failed += bad
	return nil
}

// tracedCampaign runs the workload's campaign like runCampaign, but calls
// harness.RunOne / RunMultiOne unit by unit, in harness.Run's order, so
// each unit is timed.
func (w *workload) tracedCampaign(cfg harness.Config, dir string, tr *tracer) (*outcome, error) {
	cc, err := w.openCache(dir)
	if err != nil {
		return nil, err
	}
	cfg.Cache = cc
	soloCfg := cfg
	if w.corun != nil {
		// What harness.RunMulti's reference phase runs.
		soloCfg.Multi = nil
		soloCfg.TraceTasks = false
	}
	var cells []*harness.Cell
	for _, b := range w.soloBenches() {
		for _, k := range w.kinds {
			c := &harness.Cell{Bench: b.Name, Kind: k, Samples: make([]harness.RunSample, cfg.Reps)}
			for rep := range c.Samples {
				err := tr.unit.timeErr(func() (err error) {
					c.Samples[rep], err = harness.RunOne(b, k, soloCfg, rep)
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			cells = append(cells, c)
		}
	}
	o := &outcome{mx: harness.BuildMatrix(cells)}
	if w.corun != nil {
		o.mm = &harness.MultiMatrix{CoRun: *w.corun, Kinds: w.kinds,
			Cells: map[harness.Kind]*harness.MultiCell{}, Solo: o.mx}
		for _, k := range w.kinds {
			c := &harness.MultiCell{Kind: k, Samples: make([]harness.MultiSample, cfg.Reps)}
			for rep := range c.Samples {
				err := tr.unit.timeErr(func() (err error) {
					c.Samples[rep], err = harness.RunMultiOne(w.benches, k, cfg, rep)
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			o.mm.Cells[k] = c
		}
	}
	return o, w.writeOutputs(cfg, dir, o, tr)
}

func readResults(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = results.Read(f)
	return err
}

// timedScheduler times the calls the runtime makes into a scheduler.
type timedScheduler struct {
	taskrt.Scheduler
	tr *tracer
}

func (s timedScheduler) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) (p *taskrt.Plan) {
	s.tr.plan.timeErr(func() error { p = s.Scheduler.Plan(rt, spec, occ); return nil })
	return p
}

func (s timedScheduler) Observe(rt *taskrt.Runtime, spec *taskrt.LoopSpec, st *taskrt.LoopStats) {
	s.tr.observe.timeErr(func() error { s.Scheduler.Observe(rt, spec, st); return nil })
}

// probeMachine builds the machine harness.RunOne and RunMultiOne run
// repetition rep on, for a campaign without model overrides. The probe
// checks every unit against the harness result, so a divergence shows as a
// failed unit, not as a wrong number.
func probeMachine(cfg harness.Config, rep int) *machine.Machine {
	return machine.New(machine.Config{
		Topo:  topology.MustNew(cfg.Topo),
		Seed:  cfg.Seed ^ (uint64(rep)+1)*0x9e3779b97f4a7c15,
		Noise: cfg.Noise,
		Alpha: -1,
	})
}

// probe re-simulates every unit of o below the harness — machine.New,
// Benchmark.Build, taskrt.New and RunProgram / RunWorkload, called
// directly — timing the builds and runs, with the ILAN scheduler wrapped in
// timedScheduler. It returns how many units differ from the harness's
// result for the same unit; on a replayed campaign that checks the cached
// results against a fresh simulation.
func (w *workload) probe(cfg harness.Config, o *outcome, tr *tracer) (int, error) {
	newRuntime := func(m *machine.Machine, k harness.Kind) *taskrt.Runtime {
		s := harness.NewScheduler(k)
		if k == harness.KindILAN {
			s = timedScheduler{s, tr}
		}
		return taskrt.New(m, s, taskrt.DefaultCosts())
	}
	timeRun := func(f func() error) error {
		a0 := readUint(heapAllocs)
		err := tr.run.timeErr(f)
		tr.runAllocs += readUint(heapAllocs) - a0
		return err
	}
	wrap := func(b workloads.Benchmark) workloads.Benchmark {
		build := b.Build
		b.Build = func(m *machine.Machine, cls workloads.Class) (p *taskrt.Program) {
			tr.build.timeErr(func() error { p = build(m, cls); return nil })
			return p
		}
		return b
	}
	var programs []workloads.Benchmark
	for _, b := range w.benches {
		programs = append(programs, wrap(b))
	}
	bad := 0
	for _, b := range w.soloBenches() {
		b = wrap(b)
		for _, k := range w.kinds {
			c := o.mx.Cell(b.Name, k)
			for rep, want := range c.Samples {
				m := probeMachine(cfg, rep)
				rt := newRuntime(m, k)
				prog := b.Build(m, cfg.Class)
				var res *taskrt.RunResult
				err := timeRun(func() (err error) { res, err = rt.RunProgram(prog); return err })
				if err != nil {
					return 0, err
				}
				tr.loops += res.LoopExecutions
				if float64(res.Elapsed) != want.ElapsedSec || res.TasksExecuted != want.Tasks {
					bad++
				}
			}
		}
	}
	if o.mm == nil {
		return bad, nil
	}
	for _, k := range o.mm.Kinds {
		for rep, want := range o.mm.Cells[k].Samples {
			m := probeMachine(cfg, rep)
			rt := newRuntime(m, k)
			wl := workloads.CoRunWorkload(m, programs, cfg.Class, w.corun.ArrivalSpreadSec)
			var res *taskrt.WorkloadResult
			err := timeRun(func() (err error) { res, err = rt.RunWorkload(wl); return err })
			if err != nil {
				return 0, err
			}
			for _, p := range res.Programs {
				tr.loops += p.LoopExecutions
			}
			if float64(res.Elapsed) != want.ElapsedSec {
				bad++
			}
		}
	}
	return bad, nil
}

// workCounters sums the obs counters of every unit of o, folding labelled
// series into their family. They are exact and repeat for a seed: series
// are added in name order, so float sums round the same way every time.
func workCounters(o *outcome) map[string]float64 {
	counters := map[string]float64{}
	add := func(s *obs.Snapshot) {
		if s == nil {
			return
		}
		series := make([]string, 0, len(s.Counters))
		for name := range s.Counters {
			series = append(series, name)
		}
		sort.Strings(series)
		for _, sr := range series {
			name, _, _ := strings.Cut(sr, "{")
			counters[name] += s.Counters[sr]
		}
	}
	o.mx.EachCell(func(c *harness.Cell) { add(c.MergedObs()) })
	if o.mm != nil {
		for _, k := range o.mm.Kinds {
			add(o.mm.Cells[k].MergedObs())
		}
	}
	return counters
}

// counterDiff names a counter whose value differs between a and b, or
// returns "" when they agree.
func counterDiff(a, b map[string]float64) string {
	for name, v := range a {
		if w, ok := b[name]; !ok || w != v {
			return name
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return name
		}
	}
	return ""
}

// layerMetrics assembles the per-layer ledger of a traced run. Work
// counters come from the first traced campaign's obs snapshots; host times
// from the spans, per campaign; CPU shares from the folded profiles. A
// metric of a layer the workload does not exercise reads 0.
func (w *workload) layerMetrics(l *ledger, m *measurement) (map[string]metric, error) {
	if l.first == nil {
		return nil, fmt.Errorf("no traced campaign ran")
	}
	shares, err := foldProfile(l.profiles, l.dir)
	if err != nil {
		return nil, err
	}
	tr, counters, o := &l.tr, l.counters, l.first
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(len(l.runs))
	perCampaign := func(s span) float64 { return ms(s.total()) / n }
	attr := map[harness.Kind]obs.TaskAttr{}
	o.mx.EachCell(func(c *harness.Cell) {
		if a := c.MergedAttr(); a != nil {
			t := attr[c.Kind]
			t.InterferenceSec += a.Task.InterferenceSec
			t.LocalitySec += a.Task.LocalitySec
			attr[c.Kind] = t
		}
	})
	events := counters["engine_events_fired_total"]
	attempts := counters["taskrt_steal_attempts_total"]
	hits, misses := counters["machine_l3_hits_total"], counters["machine_l3_misses_total"]
	probes := float64(l.probes)
	runNs := float64(tr.run.total().Nanoseconds()) / probes
	share := func(layer string) metric { return metric{shares[layer], "ratio"} }
	out := map[string]metric{
		"sim.events":                       {events, "count"},
		"sim.cpu_share":                    share("sim"),
		"sim.host_ns_per_event":            {ratio(runNs, events), "ns"},
		"machine.cpu_share":                share("machine"),
		"machine.tasks":                    {counters["machine_tasks_total"], "count"},
		"machine.interference_vs.baseline": {attr[harness.KindBaseline].InterferenceSec, "s"},
		"machine.interference_vs.ilan":     {attr[harness.KindILAN].InterferenceSec, "s"},
		"machine.locality_vs.baseline":     {attr[harness.KindBaseline].LocalitySec, "s"},
		"machine.locality_vs.ilan":         {attr[harness.KindILAN].LocalitySec, "s"},
		"memsys.cpu_share":                 share("memsys"),
		"memsys.l3_hit_ratio":              {ratio(hits, hits+misses), "ratio"},
		"taskrt.run_s":                     {runNs / 1e9, "s"},
		"taskrt.cpu_share":                 share("taskrt"),
		"taskrt.loops":                     {counters["taskrt_loop_executions_total"], "count"},
		"taskrt.steal_attempts":            {attempts, "count"},
		"taskrt.steal_success_ratio":       {ratio(counters["taskrt_steals_local_total"]+counters["taskrt_steals_remote_total"], attempts), "ratio"},
		"taskrt.alloc_kb_per_loop":         {ratio(float64(tr.runAllocs)/1e3, float64(tr.loops)), "kB"},
		"ilan.plan_calls":                  {float64(len(tr.plan)) / probes, "count"},
		"ilan.plan_us":                     {ratio(float64(tr.plan.total().Nanoseconds())/1e3, float64(len(tr.plan))), "us"},
		"ilan.observe_us":                  {ratio(float64(tr.observe.total().Nanoseconds())/1e3, float64(len(tr.observe))), "us"},
		"ilan.cpu_share":                   share("ilan"),
		"ilan.speedup_vs_baseline":         {o.speedup(), "ratio"},
		"workloads.build_ms":               {ms(tr.build.total()) / probes, "ms"},
		"workloads.cpu_share":              share("workloads"),
		"harness.units":                    {float64(len(tr.unit)) / n, "count"},
		"harness.unit_p50_ms":              {ms(tr.unit.quantile(0.5)), "ms"},
		"harness.unit_max_ms":              {ms(tr.unit.quantile(1)), "ms"},
		"harness.cpu_share":                share("harness"),
		"cellcache.hit_ratio":              {ratio(float64(o.cache.Hits), float64(o.cache.Hits+o.cache.Misses)), "ratio"},
		"cellcache.cpu_share":              share("cellcache"),
		"cellcache.bytes":                  {float64(l.cacheBytes), "B"},
		"results.write_ms":                 {perCampaign(tr.results), "ms"},
		"results.read_ms":                  {perCampaign(tr.read), "ms"},
		"results.bytes":                    {float64(l.resultsBytes), "B"},
		"results.cpu_share":                share("results"),
		"chrometrace.write_ms":             {perCampaign(tr.chrome), "ms"},
		"chrometrace.bytes":                {float64(l.chromeBytes), "B"},
		"chrometrace.cpu_share":            share("chrometrace"),
		"obs.cpu_share":                    share("obs"),
		"gc.cpu_share":                     share("gc"),
		"gc.cycles":                        {float64(l.gcCycles) / n, "count"},
		"trace_overhead":                   {medianOf(l.runs, cpuOf) / medianOf(m.runs, cpuOf), "ratio"},
	}
	named := 0.0
	for name, v := range out {
		if strings.HasSuffix(name, ".cpu_share") {
			named += v.Value
		}
	}
	out["other.cpu_share"] = metric{max(0, 1-named), "ratio"}
	return out, nil
}

// speedup is ILAN's modelled speedup over the baseline: the mean Figure 2
// speedup of a solo campaign, or the ratio of mean workload elapsed times
// of a co-run.
func (o *outcome) speedup() float64 {
	if o.mm != nil {
		b, i := o.mm.Cells[harness.KindBaseline], o.mm.Cells[harness.KindILAN]
		return mean(b.Elapsed()) / mean(i.Elapsed())
	}
	sum := 0.0
	for _, b := range o.mx.Benches {
		sum += o.mx.Speedup(b, harness.KindILAN)
	}
	return sum / float64(len(o.mx.Benches))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fileSize(dir, name string) int64 {
	info, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return info.Size()
}
