// Package results persists experiment campaigns as JSON and compares two
// campaigns with tolerances — the regression-tracking layer: run the
// evaluation before and after a change, diff the files, and see exactly
// which (benchmark, scheduler) cells moved.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// FormatVersion identifies the file schema. Version 2 stores task
// traces packed (taskrt.PackedTrace, a base64 string); Read still accepts
// version 1 files, whose traces are JSON objects, and packs them.
const FormatVersion = 2

// File is a persisted campaign.
type File struct {
	Version int    `json:"version"`
	Label   string `json:"label,omitempty"`
	Reps    int    `json:"reps"`
	Seed    uint64 `json:"seed"`
	Class   string `json:"class"`
	Cells   []Cell `json:"cells"`
	// CoRun and MultiCells persist a multiprogrammed campaign (ilanexp
	// -exp multi): the co-run descriptor plus one cell per scheduler kind.
	// The solo reference cells ride in Cells as ordinary solo cells, so
	// slowdown-vs-solo is reconstructible from the file alone. Absent
	// (omitted) for solo campaigns — their files stay byte-identical.
	CoRun      *harness.CoRun `json:"corun,omitempty"`
	MultiCells []MultiCell    `json:"multiCells,omitempty"`
}

// MultiCell is one scheduler kind's aggregate over the co-run scenario,
// with per-repetition arrays transposed per program.
type MultiCell struct {
	Kind string `json:"kind"`
	// Elapsed is the workload's overall elapsed seconds per repetition.
	Elapsed  []float64      `json:"elapsed"`
	Programs []MultiProgram `json:"programs"`
	// Obs is the cell's merged observability snapshot (metrics campaigns
	// only); decision traces are tagged per program.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Trace is repetition 0's packed task-event trace (tracing campaigns
	// only), with task events tagged per program.
	Trace taskrt.PackedTrace `json:"trace,omitempty"`
}

// MultiProgram is one co-running program's per-repetition outcomes.
type MultiProgram struct {
	Program     string    `json:"program"`
	Bench       string    `json:"bench"`
	ArrivalSec  []float64 `json:"arrivalSec"`
	StartSec    []float64 `json:"startSec"`
	MakespanSec []float64 `json:"makespanSec"`
}

// Cell is one (benchmark, scheduler) aggregate.
type Cell struct {
	Bench           string    `json:"bench"`
	Kind            string    `json:"kind"`
	Times           []float64 `json:"times"`
	Overheads       []float64 `json:"overheads"`
	WeightedThreads []float64 `json:"weightedThreads"`
	// Obs is the cell's merged observability snapshot: counters and
	// histograms summed over the repetitions, gauges averaged, the ILAN
	// decision trace concatenated in repetition order. Present only when
	// the campaign ran with metrics enabled.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Trace is repetition 0's full task-event trace, packed
	// (deterministic for a given seed regardless of Jobs). Present only
	// when the campaign ran with task tracing enabled; obsdump's perfetto
	// exporter decodes it.
	Trace taskrt.PackedTrace `json:"trace,omitempty"`
	// Attr is the cell's merged virtual-time attribution report (DESIGN.md
	// §14). Campaigns write it to a sidecar file (ilanexp -attr) rather
	// than into -out, so the main results file is byte-identical with and
	// without attribution; an attribution file carries Bench/Kind/Attr and
	// no samples.
	Attr *obs.AttrSnapshot `json:"attr,omitempty"`
}

// newFile returns an empty file of the campaign cfg describes.
func newFile(cfg harness.Config, label string) *File {
	return &File{
		Version: FormatVersion,
		Label:   label,
		Reps:    cfg.Reps,
		Seed:    cfg.Seed,
		Class:   cfg.Class.String(),
	}
}

// FromMatrix converts a campaign matrix into a persistable file.
func FromMatrix(mx *harness.Matrix, cfg harness.Config, label string) *File {
	f := newFile(cfg, label)
	mx.EachCell(func(c *harness.Cell) {
		cell := Cell{Bench: c.Bench, Kind: c.Kind.String(), Obs: c.MergedObs(),
			Trace: c.PackedTrace()}
		for _, s := range c.Samples {
			cell.Times = append(cell.Times, s.ElapsedSec)
			cell.Overheads = append(cell.Overheads, s.OverheadSec)
			cell.WeightedThreads = append(cell.WeightedThreads, s.WeightedThreads)
		}
		f.Cells = append(f.Cells, cell)
	})
	return f
}

// FromMulti converts a completed multiprogrammed campaign into a
// persistable file: the solo reference matrix becomes ordinary cells, and
// each co-run kind becomes a MultiCell with per-program repetition arrays.
func FromMulti(mm *harness.MultiMatrix, cfg harness.Config, label string) *File {
	f := FromMatrix(mm.Solo, cfg, label)
	co := mm.CoRun
	f.CoRun = &co
	for _, k := range mm.Kinds {
		c := mm.Cells[k]
		if c == nil {
			continue
		}
		mc := MultiCell{Kind: k.String(), Elapsed: c.Elapsed(),
			Obs: c.MergedObs(), Trace: c.PackedTrace()}
		if len(c.Samples) > 0 {
			for pi, p := range c.Samples[0].Programs {
				mp := MultiProgram{Program: p.Program, Bench: p.Bench}
				for _, s := range c.Samples {
					mp.ArrivalSec = append(mp.ArrivalSec, s.Programs[pi].ArrivalSec)
					mp.StartSec = append(mp.StartSec, s.Programs[pi].StartSec)
					mp.MakespanSec = append(mp.MakespanSec, s.Programs[pi].MakespanSec)
				}
				mc.Programs = append(mc.Programs, mp)
			}
		}
		f.MultiCells = append(f.MultiCells, mc)
	}
	return f
}

// ToMultiMatrix reconstructs the multiprogrammed campaign from a persisted
// file so the co-run report can be re-rendered without re-running. Returns
// nil when the file holds no multi campaign. Kinds unknown to this build
// are skipped, like ToMatrix does.
func (f *File) ToMultiMatrix() *harness.MultiMatrix {
	if f.CoRun == nil || len(f.MultiCells) == 0 {
		return nil
	}
	mm := &harness.MultiMatrix{
		CoRun: *f.CoRun,
		Cells: make(map[harness.Kind]*harness.MultiCell),
		Solo:  f.ToMatrix(),
	}
	for _, mc := range f.MultiCells {
		kind, ok := harness.KindFromString(mc.Kind)
		if !ok {
			continue
		}
		mm.Kinds = append(mm.Kinds, kind)
		hc := &harness.MultiCell{Kind: kind}
		for r := range mc.Elapsed {
			s := harness.MultiSample{ElapsedSec: mc.Elapsed[r]}
			for _, mp := range mc.Programs {
				s.Programs = append(s.Programs, harness.ProgramSample{
					Program:     mp.Program,
					Bench:       mp.Bench,
					ArrivalSec:  mp.ArrivalSec[r],
					StartSec:    mp.StartSec[r],
					MakespanSec: mp.MakespanSec[r],
				})
			}
			hc.Samples = append(hc.Samples, s)
		}
		mm.Cells[kind] = hc
	}
	return mm
}

// AttrFromMatrix converts a campaign matrix into an attribution-only file:
// one cell per (benchmark, scheduler) carrying the merged attribution
// report and no timing samples. Written as a sidecar next to -out so the
// main results file stays byte-identical whether or not the campaign ran
// with attribution enabled. Returns nil when no cell has attribution (the
// campaign ran without -attr).
func AttrFromMatrix(mx *harness.Matrix, cfg harness.Config, label string) *File {
	f := newFile(cfg, label)
	any := false
	mx.EachCell(func(c *harness.Cell) {
		cell := Cell{Bench: c.Bench, Kind: c.Kind.String(), Attr: c.MergedAttr()}
		if cell.Attr != nil {
			any = true
		}
		f.Cells = append(f.Cells, cell)
	})
	if !any {
		return nil
	}
	return f
}

// Write serializes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile reads and validates the results file at path (see Read).
func ReadFile(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Read(r)
}

// Read parses and validates a results file. A version 1 file is read
// into the current form: its traces are packed and its Version becomes
// FormatVersion, so writing it back gives the version 2 file.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if f.Version != 1 && f.Version != FormatVersion {
		return nil, fmt.Errorf("results: unsupported version %d (want 1 or %d)", f.Version, FormatVersion)
	}
	f.Version = FormatVersion
	if len(f.MultiCells) > 0 && f.CoRun == nil {
		return nil, fmt.Errorf("results: multi cells without a co-run descriptor")
	}
	seen := map[string]bool{}
	for _, v := range f.Views() {
		if seen[v.Name] {
			return nil, fmt.Errorf("results: duplicate cell %s", v.Name)
		}
		seen[v.Name] = true
		// Attribution sidecar files carry report-only cells; everything
		// else must have at least one timing sample.
		if v.Series == nil && v.Attr == nil {
			return nil, fmt.Errorf("results: cell %s has no samples", v.Name)
		}
	}
	for _, c := range f.MultiCells {
		for _, p := range c.Programs {
			if len(p.ArrivalSec) != len(c.Elapsed) || len(p.StartSec) != len(c.Elapsed) ||
				len(p.MakespanSec) != len(c.Elapsed) {
				return nil, fmt.Errorf("results: multi cell %s program %s has %d arrivals, %d starts and %d makespans for %d samples",
					c.Kind, p.Program, len(p.ArrivalSec), len(p.StartSec), len(p.MakespanSec), len(c.Elapsed))
			}
		}
	}
	return &f, nil
}

// ToMatrix reconstructs a harness matrix from a persisted campaign so that
// reports and charts can be re-rendered without re-running experiments.
// Cells whose kind name is unknown to this build are skipped.
func (f *File) ToMatrix() *harness.Matrix {
	var cells []*harness.Cell
	for _, c := range f.Cells {
		kind, ok := harness.KindFromString(c.Kind)
		if !ok {
			continue
		}
		hc := &harness.Cell{Bench: c.Bench, Kind: kind}
		for i := range c.Times {
			s := harness.RunSample{ElapsedSec: c.Times[i]}
			if i < len(c.Overheads) {
				s.OverheadSec = c.Overheads[i]
			}
			if i < len(c.WeightedThreads) {
				s.WeightedThreads = c.WeightedThreads[i]
			}
			hc.Samples = append(hc.Samples, s)
		}
		cells = append(cells, hc)
	}
	return harness.BuildMatrix(cells)
}

// View is one cell of a results file as every reader sees it: a solo
// cell or a co-run cell. Compare, CompareObs, WritePerfetto and obsdump
// all walk a file through Views.
type View struct {
	// Name is "bench/kind" for a solo cell and "scenario/kind" for a
	// co-run cell, e.g. "CG+FT/ilan" (bench names never contain '+'). A
	// one-program co-run's scenario keeps a trailing '+' ("CG+/ilan"),
	// so it never shares its solo reference cell's name.
	Name string
	// Bench is the solo cell's benchmark or the co-run cell's scenario.
	Bench string
	Kind  string
	Obs   *obs.Snapshot
	Trace taskrt.PackedTrace
	Attr  *obs.AttrSnapshot
	// Series holds the cell's numbers as means over its repetitions, by
	// name: time, overhead and threads for a solo cell; elapsed, and
	// arrival[P], start[P] and makespan[P] for each program P, for a
	// co-run cell. Nil for a cell with no samples (an attribution
	// sidecar's).
	Series map[string]float64
}

// Views returns the file's cells in walk order: the solo cells, then the
// co-run cells, each in file order.
func (f *File) Views() []View {
	views := make([]View, 0, len(f.Cells)+len(f.MultiCells))
	for _, c := range f.Cells {
		v := View{Name: c.Bench + "/" + c.Kind, Bench: c.Bench, Kind: c.Kind,
			Obs: c.Obs, Trace: c.Trace, Attr: c.Attr}
		if len(c.Times) > 0 {
			v.Series = map[string]float64{
				"time":     stats.Mean(c.Times),
				"overhead": stats.Mean(c.Overheads),
				"threads":  stats.Mean(c.WeightedThreads),
			}
		}
		views = append(views, v)
	}
	if len(f.MultiCells) == 0 {
		return views
	}
	scenario := f.CoRun.Scenario()
	if len(f.CoRun.Benches) == 1 {
		scenario += "+"
	}
	for _, c := range f.MultiCells {
		v := View{Name: scenario + "/" + c.Kind, Bench: scenario, Kind: c.Kind,
			Obs: c.Obs, Trace: c.Trace}
		if len(c.Elapsed) > 0 {
			v.Series = map[string]float64{"elapsed": stats.Mean(c.Elapsed)}
			for _, p := range c.Programs {
				v.Series["arrival["+p.Program+"]"] = stats.Mean(p.ArrivalSec)
				v.Series["start["+p.Program+"]"] = stats.Mean(p.StartSec)
				v.Series["makespan["+p.Program+"]"] = stats.Mean(p.MakespanSec)
			}
		}
		views = append(views, v)
	}
	return views
}

// View returns the file's cell named name (see View.Name), or nil.
func (f *File) View(name string) *View {
	return index(f)[name]
}

// index maps each of f's cell names to its view.
func index(f *File) map[string]*View {
	views := f.Views()
	m := make(map[string]*View, len(views))
	for i := range views {
		m[views[i].Name] = &views[i]
	}
	return m
}

// pairs visits the union of two files' cell names in sorted order with
// each name's view in a and in b; a view is nil when its file lacks the
// cell.
func pairs(a, b *File, visit func(va, vb *View)) {
	ia, ib := index(a), index(b)
	for _, name := range union(ia, ib) {
		visit(ia[name], ib[name])
	}
}

// union returns the keys of a and b in sorted order, each once.
func union[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// diffSeries compares two cells' named values and returns, in name
// order, an ObsDiff (Metric, Old, New, Rel, What; no Bench or Kind) for
// each that differs. A name on one side only is "missing" or "new", NaN
// on the side that lacks it. A NaN on either side is always a diff: NaN
// drift compares false against any tolerance, so a gate that only checked
// drift would let a value gone NaN through. Otherwise a value that moved
// by more than tol, relative to the old one, is a "drift" — unless skip
// (which may be nil) exempts its name.
func diffSeries(old, new map[string]float64, tol float64, skip func(string) bool) []ObsDiff {
	var diffs []ObsDiff
	for _, name := range union(old, new) {
		o, inOld := old[name]
		n, inNew := new[name]
		switch {
		case !inNew:
			diffs = append(diffs, ObsDiff{Metric: name, Old: o, New: math.NaN(), Rel: math.NaN(), What: "missing"})
		case !inOld:
			diffs = append(diffs, ObsDiff{Metric: name, Old: math.NaN(), New: n, Rel: math.NaN(), What: "new"})
		case math.IsNaN(o) || math.IsNaN(n):
			diffs = append(diffs, ObsDiff{Metric: name, Old: o, New: n, Rel: math.NaN(), What: "nan"})
		case skip != nil && skip(name), o == 0 && n == 0:
		default:
			if rel := (n - o) / math.Abs(o); math.Abs(rel) > tol {
				diffs = append(diffs, ObsDiff{Metric: name, Old: o, New: n, Rel: rel, What: "drift"})
			}
		}
	}
	return diffs
}

// Diff is one cell-level discrepancy between two campaigns.
type Diff struct {
	// Bench is the benchmark, or the scenario of a co-run cell.
	Bench string
	Kind  string
	// Field names the compared mean, one of View.Series's names: "time",
	// "overhead" or "threads" for a solo cell; "elapsed", "arrival[P]",
	// "start[P]" or "makespan[P]" for a co-run cell.
	Field string
	// Old and New are the compared means; Rel the relative change.
	Old, New, Rel float64
	// Missing marks cells present in only one file.
	Missing bool
}

// String renders the diff on one line.
func (d Diff) String() string {
	if d.Missing {
		return fmt.Sprintf("%-8s %-14s missing from one file", d.Bench, d.Kind)
	}
	return fmt.Sprintf("%-8s %-14s %-8s %12.6g -> %12.6g (%+.2f%%)",
		d.Bench, d.Kind, d.Field, d.Old, d.New, 100*d.Rel)
}

// Compare reports, for solo and co-run cells alike, every mean in
// View.Series that moved by more than tol (relative) or is NaN. Cells
// missing from either file are always reported. A mean on one side only
// compares as NaN on the other, as a mean over no samples would.
func Compare(a, b *File, tol float64) []Diff {
	var diffs []Diff
	pairs(a, b, func(va, vb *View) {
		if va == nil || vb == nil {
			ref := va
			if ref == nil {
				ref = vb
			}
			diffs = append(diffs, Diff{Bench: ref.Bench, Kind: ref.Kind, Missing: true})
			return
		}
		// Attribution-only cells (sidecar files) carry no samples on
		// either side and are skipped. A cell with samples on exactly one
		// side still reaches the NaN gate — that is a real file mismatch.
		if va.Series == nil && vb.Series == nil {
			return
		}
		for _, d := range diffSeries(va.Series, vb.Series, tol, nil) {
			diffs = append(diffs, Diff{Bench: va.Bench, Kind: va.Kind, Field: d.Metric,
				Old: d.Old, New: d.New, Rel: d.Rel})
		}
	})
	return diffs
}

// ObsDiff is one telemetry-level discrepancy between two campaigns' merged
// observability snapshots.
type ObsDiff struct {
	Bench  string
	Kind   string
	Metric string
	// Old and New are the compared values, NaN on a side that lacks the
	// metric; Rel is the relative change, NaN when either value is NaN or
	// lacking.
	Old, New, Rel float64
	// Kind of discrepancy: "drift" (value moved beyond tolerance),
	// "missing" (metric present only in the old file), "new" (metric
	// present only in the new file), "nan" (either side is NaN — never
	// within tolerance), "no-obs" (one cell has no snapshot at all), or
	// "no-attr" (one cell has no attribution report).
	What string
}

// String renders the obs diff on one line.
func (d ObsDiff) String() string {
	switch d.What {
	case "missing":
		return fmt.Sprintf("%-8s %-14s obs metric %s missing from new file", d.Bench, d.Kind, d.Metric)
	case "new":
		return fmt.Sprintf("%-8s %-14s obs metric %s new in new file", d.Bench, d.Kind, d.Metric)
	case "no-obs":
		return fmt.Sprintf("%-8s %-14s obs snapshot present in only one file", d.Bench, d.Kind)
	case "no-attr":
		return fmt.Sprintf("%-8s %-14s attribution report present in only one file", d.Bench, d.Kind)
	case "nan":
		return fmt.Sprintf("%-8s %-14s obs %s is NaN (%g -> %g)",
			d.Bench, d.Kind, d.Metric, d.Old, d.New)
	default:
		return fmt.Sprintf("%-8s %-14s obs %s %12.6g -> %12.6g (%+.2f%%)",
			d.Bench, d.Kind, d.Metric, d.Old, d.New, 100*d.Rel)
	}
}

// CompareObs diffs the attribution reports and merged observability
// snapshots of the cells, solo and co-run, that both files hold (Compare
// reports the others). Attribution reports are compared term by term;
// residual terms are NaN-gated but exempt from drift (see
// isAttrResidual). Snapshots are compared on counter and histogram-count
// values that moved by more than tol (relative), plus metric names present
// on only one side. Gauges are compared by name only (their values are
// per-run averages and legitimately move with timing calibration);
// counters are the regression surface — a silently vanished steal
// counter or a doubled phase-transition count fails the gate even when
// wall-clock times agree. A report or snapshot on exactly one side is
// reported; on neither side it is skipped (the campaign ran without it).
func CompareObs(a, b *File, tol float64) []ObsDiff {
	var diffs []ObsDiff
	pairs(a, b, func(va, vb *View) {
		if va == nil || vb == nil {
			return
		}
		var ds []ObsDiff
		switch {
		case va.Attr == nil && vb.Attr == nil:
		case va.Attr == nil || vb.Attr == nil:
			ds = append(ds, ObsDiff{What: "no-attr"})
		default:
			ds = diffSeries(attrVals(va.Attr), attrVals(vb.Attr), tol, isAttrResidual)
		}
		switch {
		case va.Obs == nil && vb.Obs == nil:
		case va.Obs == nil || vb.Obs == nil:
			ds = append(ds, ObsDiff{What: "no-obs"})
		default:
			ds = append(ds, diffSeries(obsVals(va.Obs), obsVals(vb.Obs), tol, nil)...)
		}
		for _, d := range ds {
			d.Bench, d.Kind = va.Bench, va.Kind
			diffs = append(diffs, d)
		}
	})
	return diffs
}

// obsVals flattens a snapshot into the named values CompareObs gates:
// counters, histogram counts (as NAME_count), and gauges at a constant 0,
// so a gauge takes part in the name comparison but never drifts.
func obsVals(s *obs.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Counters)+len(s.Histograms)+len(s.Gauges))
	for name := range s.Gauges {
		m[name] = 0
	}
	for name, v := range s.Counters {
		m[name] = v
	}
	for name, h := range s.Histograms {
		m[name+"_count"] = float64(h.Count)
	}
	return m
}

// attrVals flattens an attribution report into named scalar terms for
// comparison: the campaign-wide task decomposition, per-resource
// interference attribution, and every per-loop makespan term.
func attrVals(a *obs.AttrSnapshot) map[string]float64 {
	m := map[string]float64{
		"attr_runs":               float64(a.Runs),
		"attr_task_tasks":         float64(a.Task.Tasks),
		"attr_task_elapsed":       a.Task.ElapsedSec,
		"attr_task_ideal_compute": a.Task.IdealComputeSec,
		"attr_task_core_speed":    a.Task.CoreSpeedSec,
		"attr_task_ideal_memory":  a.Task.IdealMemorySec,
		"attr_task_locality":      a.Task.LocalitySec,
		"attr_task_interference":  a.Task.InterferenceSec,
		"attr_task_residual":      a.Task.ResidualSec,
	}
	for name, v := range a.Interference {
		m["attr_interference["+name+"]"] = v
	}
	for name, l := range a.Loops {
		p := "attr_loop[" + name + "]_"
		m[p+"executions"] = float64(l.Executions)
		m[p+"makespan"] = l.MakespanSec
		m[p+"core"] = l.CoreSec
		m[p+"select"] = l.SelectSec
		m[p+"task"] = l.TaskSec
		m[p+"steal"] = l.StealSec
		m[p+"imbalance"] = l.ImbalanceSec
		m[p+"barrier"] = l.BarrierSec
		m[p+"queue_wait"] = l.QueueWaitSec
		m[p+"residual"] = l.ResidualSec
	}
	return m
}

// isAttrResidual reports whether the flattened attr metric is a residual
// term. Residuals are floating-point closures bounded near zero by the
// conservation invariant (DESIGN.md §14), so their *relative* drift is
// noise (1e-18 -> 3e-18 is a 200% move); they are NaN-gated but excluded
// from drift comparison.
func isAttrResidual(name string) bool {
	return strings.HasSuffix(name, "_residual")
}

// WritePerfetto writes one cell's rep-0 task trace, with the cell's
// rep-0 ILAN decisions as scheduler instants, as Chrome trace-event JSON
// (chrometrace.Write). cell names the cell as in View.Name; an empty cell
// picks the first traced ILAN cell in walk order — phase transitions and
// yellow/green stealing are what the export is for — or else the first
// traced cell. Only that cell's trace is decoded. A co-run trace's
// per-program tags group each co-runner under its own process track.
func (f *File) WritePerfetto(w io.Writer, cell string) error {
	pick := f.View(cell)
	if cell == "" {
		ilan := harness.KindILAN.String()
		views := f.Views()
		for i := range views {
			v := &views[i]
			if len(v.Trace) > 0 && (pick == nil || pick.Kind != ilan && v.Kind == ilan) {
				pick = v
			}
		}
	}
	if pick == nil || len(pick.Trace) == 0 {
		where := "any cell"
		if cell != "" {
			where = "cell " + cell
		}
		return fmt.Errorf("results: no task trace in %s (rerun the campaign with ilanexp -perfetto, or any tracing config)", where)
	}
	trace, err := pick.Trace.Unpack()
	if err != nil {
		return fmt.Errorf("results: cell %s: %w", pick.Name, err)
	}
	return chrometrace.Write(w, trace, pick.Obs.Rep0Decisions(), chrometrace.Options{})
}
