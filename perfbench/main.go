// Command perfbench is the repository's benchmark. It runs one of three
// fixed ILAN campaigns through the public functions ilanexp calls, checks
// that the outputs are correct, and prints its metrics as the last line of
// standard output, one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload solo-paper --seed 7 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced:
// host time, memory and disk, and the simulated Figure 2 error. With
// --trace 1 every untraced campaign of the measured phase is followed by a
// traced one, and it prints the per-layer ledger instead. README.md lists
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Set-up runs at least setupReps times and until it has taken
// setupSeconds; setup_s is the median of its runs.
const (
	setupReps    = 3
	setupSeconds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "solo-paper | corun-paper | replay-traced")
	seed := fl.Uint64("seed", 2025, "campaign seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 30, "host seconds the measured phase runs for (at least one campaign)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced campaigns too, per-layer metrics")
	work := fl.String("work", ".bench_build", "directory for the run's files, which are removed at exit")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var l *ledger
	if *trace == 1 {
		l = newLedger(dir)
	}
	m, err := w.measure(dir, time.Duration(*seconds)*time.Second, l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep := report{Attempted: m.attempted, Failed: m.failed, Metrics: m.endToEnd()}
	if l != nil {
		if rep.Metrics, err = w.layerMetrics(l, m); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	rep.Correct = rep.Failed == 0
	fmt.Printf("workload=%s seed=%d campaigns=%d wall_s=%.4f digest=%s attempted=%d failed=%d fail_ratio=%g\n",
		w.name, *seed, len(m.runs), medianOf(m.runs, wallOf), m.digest, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted))
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measurement is a run: set-up, then the campaign repeated for the
// measured phase.
type measurement struct {
	setup, runs       []timed
	attempted, failed int
	digest            string   // of the reference campaign
	first             *outcome // the first measured campaign
	dir               string   // the campaign's directory
	diskMB            float64
	fileDigest        string // of the reference output files
}

// measure sets the workload up, then runs its campaign until d has passed,
// checking every run. With a ledger, each untraced
// campaign is followed by a traced one. The phase ends when one more
// iteration would likely overrun d, after at least one.
func (w *workload) measure(dir string, d time.Duration, l *ledger) (*measurement, error) {
	m := &measurement{dir: filepath.Join(dir, "campaign")}
	setupStart := time.Now()
	for len(m.setup) < setupReps || time.Since(setupStart).Seconds() < setupSeconds {
		if err := os.RemoveAll(m.dir); err != nil {
			return nil, err
		}
		var o *outcome
		t, err := timeCampaign(func() (err error) {
			o, err = w.runCampaign(w.setupCfg, m.dir, &tracer{})
			return err
		})
		m.setup = append(m.setup, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if bad := w.failedUnits(o, false); bad > 0 {
			return nil, fmt.Errorf("set-up: %d units ran no tasks", bad)
		}
		if w.coldSetup {
			m.digest = o.digest()
			if m.fileDigest, err = w.fileDigests(m.dir); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	var iters []float64
	for len(iters) == 0 || time.Since(start).Seconds()+median(iters) <= d.Seconds() {
		t0 := time.Now()
		ok, err := w.measureOnce(m)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if l != nil {
			if err := w.traceOnce(l, m); err != nil {
				return nil, fmt.Errorf("traced campaign: %w", err)
			}
		}
		iters = append(iters, time.Since(t0).Seconds())
	}
	if m.first == nil {
		return m, nil
	}
	size, err := dirBytes(m.dir)
	if err != nil {
		return nil, err
	}
	m.diskMB = float64(size) / 1e6
	return m, nil
}

// measureOnce runs one untraced campaign, times it and checks it against
// the reference. It returns false when the campaign failed to run.
func (w *workload) measureOnce(m *measurement) (bool, error) {
	var o *outcome
	t, err := timeCampaign(func() (err error) {
		o, err = w.runCampaign(w.cfg, m.dir, &tracer{})
		return err
	})
	m.attempted += w.units()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: campaign:", err)
		m.failed += w.units()
		return false, nil
	}
	m.runs = append(m.runs, t)
	fmt.Fprintf(os.Stderr, "perfbench: campaign %d: %.3f s wall, %.3f s CPU, %.1f%% stolen, %.1f MB allocated\n",
		len(m.runs), t.wall, t.cpu, 100*t.stolen, t.allocMB)
	if m.first == nil {
		m.first = o
	}
	bad := w.failedUnits(o, true)
	files, err := w.fileDigests(m.dir)
	if err != nil {
		return false, err
	}
	if m.digest == "" {
		m.digest, m.fileDigest = o.digest(), files
	}
	if o.digest() != m.digest || files != m.fileDigest {
		fmt.Fprintf(os.Stderr, "perfbench: campaign %d differs from the reference run\n", len(m.runs))
		bad = w.units()
	}
	m.failed += bad
	return true, nil
}

// endToEnd returns the end-to-end metrics of the untraced campaigns; each
// host figure is a median over them. Host time is CPU time (see
// cpuSeconds); the median wall time goes on the text line.
func (m *measurement) endToEnd() map[string]metric {
	out := map[string]metric{
		"setup_s":     {medianOf(m.setup, cpuOf), "s"},
		"cpu_s":       {medianOf(m.runs, cpuOf), "s"},
		"alloc_mb":    {medianOf(m.runs, allocOf), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"disk_mb":     {m.diskMB, "MB"},
	}
	if m.first != nil {
		out["fig2_err_pp"] = metric{fig2ErrPP(m.first.mx), "pp"}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
