package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/fsatomic"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Output files a campaign leaves in its directory, named as ilanexp's
// -out, -perfetto and -cache-dir would be.
const (
	resultsName  = "results.json"
	perfettoName = "trace.json"
	cacheName    = "cache"
	resultsLabel = "perfbench"
	cacheMaxMB   = 1024 // ilanexp's -cache-max-mb default
)

// workload is one fixed campaign of the benchmark.
type workload struct {
	name string
	// cfg is the measured campaign. Every workload runs with Jobs = 1 and
	// the paper's noise model on.
	cfg   harness.Config
	kinds []harness.Kind
	// benches are the solo campaign's benchmarks, or the co-run's
	// programs (one entry per program) when corun is set.
	benches []workloads.Benchmark
	corun   *harness.CoRun
	// cached runs the campaign through a cellcache in its directory and
	// writes the Perfetto export, as ilanexp -cache-dir -perfetto does.
	cached bool
	// setupCfg is the campaign set-up runs before the measured phase.
	// coldSetup means it is cfg itself run on an empty cache, so its
	// output files are the reference the warm runs must reproduce.
	setupCfg  harness.Config
	coldSetup bool
}

func newWorkload(name string, seed uint64) (*workload, error) {
	cfg := harness.DefaultConfig() // Zen4Vera, paper class, noise on
	cfg.Seed = seed
	cfg.Reps = 1
	cfg.Jobs = 1
	w := &workload{name: name, cfg: cfg, kinds: []harness.Kind{harness.KindBaseline, harness.KindILAN}}
	switch name {
	case "solo-paper":
		w.benches = workloads.All()
	case "corun-paper":
		w.corun = &harness.CoRun{Benches: []string{"CG", "FT", "SP", "BT"}, ArrivalSpreadSec: 0.2}
		for _, n := range w.corun.Benches {
			b, _ := workloads.ByName(n)
			w.benches = append(w.benches, b)
		}
		w.cfg.Multi = w.corun
	case "replay-traced":
		w.benches = workloads.All()
		w.cfg.Class = workloads.ClassTest
		w.cfg.Reps = 5
		// What ilanexp -perfetto turns on.
		w.cfg.TraceTasks = true
		w.cfg.TraceDecisions = true
		w.cached = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want solo-paper, corun-paper or replay-traced)", name)
	}
	w.setupCfg = w.cfg
	if w.cached {
		w.coldSetup = true
	} else {
		// A test-class pass of the same campaign: it checks the
		// configuration runs end to end and warms the process before
		// the paper-class campaign is timed.
		w.setupCfg.Class = workloads.ClassTest
	}
	return w, nil
}

// units returns how many harness units one campaign runs.
func (w *workload) units() int {
	n := len(w.soloBenches()) * len(w.kinds) * w.cfg.Reps
	if w.corun != nil {
		n += len(w.kinds) * w.cfg.Reps
	}
	return n
}

// soloBenches returns the benchmarks of the solo cells: the campaign's
// benchmarks, or each co-run benchmark once for the reference phase.
func (w *workload) soloBenches() []workloads.Benchmark {
	if w.corun == nil {
		return w.benches
	}
	var out []workloads.Benchmark
	seen := map[string]bool{}
	for _, b := range w.benches {
		if !seen[b.Name] {
			seen[b.Name] = true
			out = append(out, b)
		}
	}
	return out
}

// outcome is one campaign's simulated results.
type outcome struct {
	mx    *harness.Matrix      // solo cells; a co-run's reference phase
	mm    *harness.MultiMatrix // co-run cells, nil for solo campaigns
	cache cellcache.Stats      // this run's cache counters, if cached
}

// runCampaign runs the campaign once through the entry points ilanexp
// uses — harness.Run or harness.RunMulti, then results and chrometrace —
// and leaves its files in dir.
func (w *workload) runCampaign(cfg harness.Config, dir string, tr *tracer) (*outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cc, err := w.openCache(dir)
	if err != nil {
		return nil, err
	}
	cfg.Cache = cc
	o := &outcome{}
	if w.corun != nil {
		o.mm, err = harness.RunMulti(w.kinds, cfg, nil)
		if err == nil {
			o.mx = o.mm.Solo
		}
	} else {
		o.mx, err = harness.Run(w.benches, w.kinds, cfg, nil)
	}
	if err != nil {
		return nil, err
	}
	return o, w.writeOutputs(cfg, dir, o, tr)
}

// openCache opens the campaign cache in dir, or returns nil for an
// uncached workload.
func (w *workload) openCache(dir string) (*cellcache.Cache, error) {
	if !w.cached {
		return nil, nil
	}
	return cellcache.Open(filepath.Join(dir, cacheName), cacheMaxMB<<20)
}

// writeOutputs writes the results file, and for a cached workload flushes
// the cache index and writes the Perfetto export.
func (w *workload) writeOutputs(cfg harness.Config, dir string, o *outcome, tr *tracer) error {
	err := tr.results.timeErr(func() error {
		var file *results.File
		if o.mm != nil {
			file = results.FromMulti(o.mm, cfg, resultsLabel)
		} else {
			file = results.FromMatrix(o.mx, cfg, resultsLabel)
		}
		return fsatomic.WriteFile(filepath.Join(dir, resultsName), file.Write)
	})
	if err != nil || cfg.Cache == nil {
		return err
	}
	cfg.Cache.Flush()
	o.cache = cfg.Cache.Stats()
	return tr.chrome.timeErr(func() error {
		return writePerfetto(filepath.Join(dir, perfettoName), o.mx)
	})
}

// writePerfetto exports rep 0's task trace of the ILAN cell (or the first
// traced cell) with its decision trace, as ilanexp -perfetto does.
func writePerfetto(path string, mx *harness.Matrix) error {
	var cell *harness.Cell
	mx.EachCell(func(c *harness.Cell) {
		if c.TaskTrace() == nil {
			return
		}
		if cell == nil || (cell.Kind != harness.KindILAN && c.Kind == harness.KindILAN) {
			cell = c
		}
	})
	if cell == nil {
		return fmt.Errorf("no task trace recorded")
	}
	var decisions []obs.Decision
	if o := cell.Samples[0].Obs; o != nil {
		decisions = o.Decisions
	}
	return fsatomic.WriteFile(path, func(w io.Writer) error {
		return chrometrace.Write(w, cell.TaskTrace(), decisions, chrometrace.Options{})
	})
}

// failedUnits counts the units of o that ran no tasks; a replayed
// campaign also fails every unit that missed the cache.
func (w *workload) failedUnits(o *outcome, warm bool) int {
	failed := 0
	o.mx.EachCell(func(c *harness.Cell) {
		for _, s := range c.Samples {
			if s.Tasks == 0 {
				failed++
			}
		}
	})
	if o.mm != nil {
		for _, k := range o.mm.Kinds {
			for _, s := range o.mm.Cells[k].Samples {
				for _, p := range s.Programs {
					if p.Tasks == 0 {
						failed++
						break
					}
				}
			}
		}
	}
	if warm && w.cached {
		failed += int(o.cache.Misses)
	}
	return min(failed, w.units())
}

// digest fingerprints every simulated number of the campaign, bit for bit.
// It does not cover observability data, so a traced run of the same
// campaign has the same digest.
func (o *outcome) digest() string {
	h := sha256.New()
	bits := math.Float64bits
	o.mx.EachCell(func(c *harness.Cell) {
		for rep, s := range c.Samples {
			fmt.Fprintf(h, "%s/%s/%d %x %x %x %d %d %d\n", c.Bench, c.Kind, rep,
				bits(s.ElapsedSec), bits(s.OverheadSec), bits(s.WeightedThreads),
				s.Tasks, s.StealsLocal, s.StealsRemote)
		}
	})
	if o.mm != nil {
		for _, k := range o.mm.Kinds {
			for rep, s := range o.mm.Cells[k].Samples {
				fmt.Fprintf(h, "corun/%s/%d %x", k, rep, bits(s.ElapsedSec))
				for _, p := range s.Programs {
					fmt.Fprintf(h, " %s %x %x %x %d", p.Program,
						bits(p.ArrivalSec), bits(p.StartSec), bits(p.MakespanSec), p.Tasks)
				}
				fmt.Fprintln(h)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// paperFig2 is the paper's Figure 2 ILAN-over-baseline speedup, in
// percent, for the four benchmarks it gives as numbers (EXPERIMENTS.md).
// The model was calibrated on these values, so fig2_err_pp measures how
// far a change moves the model from its calibration, not a held-out error.
var paperFig2 = []struct {
	bench string
	pct   float64
}{{"FT", 12.3}, {"BT", 16.9}, {"CG", 8.0}, {"SP", 45.8}}

// fig2ErrPP is the mean absolute difference, in percentage points,
// between the simulated and the paper's Figure 2 speedups.
func fig2ErrPP(mx *harness.Matrix) float64 {
	sum := 0.0
	for _, p := range paperFig2 {
		sum += math.Abs((mx.Speedup(p.bench, harness.KindILAN)-1)*100 - p.pct)
	}
	return sum / float64(len(paperFig2))
}

// fileDigests hashes the campaign's output files (results and, for a
// cached workload, the Perfetto export).
func (w *workload) fileDigests(dir string) (string, error) {
	names := []string{resultsName}
	if w.cached {
		names = append(names, perfettoName)
	}
	h := sha256.New()
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
