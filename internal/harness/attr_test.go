package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// TestAttrOutputNeutral: attribution must not perturb a campaign — every
// timing sample and the merged obs snapshot are identical with Config.Attr
// on or off. This is the sample-level half of the byte-identity gate; CI
// additionally diffs whole -out and -perfetto files.
func TestAttrOutputNeutral(t *testing.T) {
	t.Parallel()
	run := func(attr bool) *Cell {
		cfg := testConfig()
		cfg.Reps = 3
		cfg.Metrics = true
		cfg.Attr = attr
		cell, err := RunCell(mustBench(t, "CG"), KindILAN, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	off, on := run(false), run(true)
	for r := range off.Samples {
		a, b := off.Samples[r], on.Samples[r]
		if a.ElapsedSec != b.ElapsedSec || a.OverheadSec != b.OverheadSec ||
			a.WeightedThreads != b.WeightedThreads {
			t.Fatalf("rep %d samples moved with attribution on:\noff %+v\non  %+v", r, a, b)
		}
		if b.Attr == nil {
			t.Fatalf("rep %d missing attribution with Config.Attr set", r)
		}
		if a.Attr != nil {
			t.Fatalf("rep %d carries attribution with Config.Attr off", r)
		}
	}
	a, b := snapJSON(t, off), snapJSON(t, on)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged obs snapshot moved with attribution on:\noff: %s\non:  %s", a, b)
	}
}

// TestAttrMergedJobsInvariant extends the jobs-determinism contract to
// attribution: the merged report serializes byte-identically whether the
// reps ran on one worker or eight, and the merged decomposition still
// satisfies both conservation laws.
func TestAttrMergedJobsInvariant(t *testing.T) {
	t.Parallel()
	run := func(jobs int) *Cell {
		cfg := testConfig()
		cfg.Reps = 4
		cfg.Jobs = jobs
		cfg.Attr = true
		cell, err := RunCell(mustBench(t, "FT"), KindILAN, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	attrJSON := func(c *Cell) []byte {
		a := c.MergedAttr()
		if a == nil {
			t.Fatal("MergedAttr nil with Config.Attr set")
		}
		j, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	seq, par := run(1), run(8)
	a, b := attrJSON(seq), attrJSON(par)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged attribution differs between jobs=1 and jobs=8:\nseq: %s\npar: %s", a, b)
	}
	m := seq.MergedAttr()
	if m.Runs != 4 || m.Task.Tasks == 0 {
		t.Fatalf("merged report incomplete: runs=%d tasks=%d", m.Runs, m.Task.Tasks)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("merged attribution violates conservation: %v", err)
	}
	if len(m.Loops) == 0 {
		t.Fatal("merged report carries no loop decompositions")
	}
}

// TestAttrCGILANBeatsObliviousBaseline is the paper-facing qualitative
// check behind `obsdump attr`: on the memory-bound CG benchmark the ILAN
// scheduler must accumulate less interference stall than the
// locality-oblivious baseline, and the attribution must expose the locality
// penalty the baseline pays for its oblivious placement.
func TestAttrCGILANBeatsObliviousBaseline(t *testing.T) {
	t.Parallel()
	run := func(k Kind) *Cell {
		cfg := testConfig()
		cfg.Reps = 2
		cfg.Attr = true
		cell, err := RunCell(mustBench(t, "CG"), k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	base := run(KindBaseline).MergedAttr()
	ilan := run(KindILAN).MergedAttr()
	t.Logf("baseline: interference=%gs locality=%gs", base.Task.InterferenceSec, base.Task.LocalitySec)
	t.Logf("ilan:     interference=%gs locality=%gs", ilan.Task.InterferenceSec, ilan.Task.LocalitySec)
	if ilan.Task.InterferenceSec >= base.Task.InterferenceSec {
		t.Fatalf("ILAN interference stall %gs not below oblivious baseline %gs",
			ilan.Task.InterferenceSec, base.Task.InterferenceSec)
	}
	if base.Task.LocalitySec <= 0 {
		t.Fatalf("oblivious baseline shows no locality penalty (%gs); the term is not being attributed",
			base.Task.LocalitySec)
	}
}

// elapsedRecorder wraps a scheduler and sums every execution's
// LoopStats.Elapsed per loop, the per-loop mean a calibration run reads
// straight off the scheduler callbacks.
type elapsedRecorder struct {
	taskrt.Scheduler
	sums  map[int]float64
	count map[int]int
}

func (r *elapsedRecorder) Observe(rt *taskrt.Runtime, sp *taskrt.LoopSpec, st *taskrt.LoopStats) {
	r.Scheduler.Observe(rt, sp, st)
	r.sums[sp.ID] += float64(st.Elapsed)
	r.count[sp.ID]++
}

// TestAttrLoopMeanMatchesObservedElapsed pins obsdump's attr mean(ms)
// column, 1e3·MakespanSec/Executions, to the scheduler-observed loop times:
// the attribution's per-loop makespan sum and execution count must equal
// Σ LoopStats.Elapsed and the Observe count exactly, not within a tolerance.
func TestAttrLoopMeanMatchesObservedElapsed(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	b := mustBench(t, "CG")
	for _, k := range []Kind{KindBaseline, KindILANNoMold, KindILAN} {
		m := machine.Build(cfg.Spec, cfg.Seed)
		prog := b.Build(m, cfg.Class)
		rec := &elapsedRecorder{Scheduler: NewScheduler(k), sums: map[int]float64{}, count: map[int]int{}}
		rt := taskrt.New(m, rec, taskrt.DefaultCosts())
		rt.EnableAttr()
		if _, err := rt.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
		loops := rt.AttrSnapshot().Loops
		for _, l := range prog.Loops {
			la := loops[l.Name]
			if la.Executions != rec.count[l.ID] || la.MakespanSec != rec.sums[l.ID] {
				t.Errorf("%s loop %s: attr %d executions, %.17g s; observed %d, %.17g s",
					k, l.Name, la.Executions, la.MakespanSec, rec.count[l.ID], rec.sums[l.ID])
			}
			if la.Executions == 0 {
				t.Errorf("%s loop %s never executed", k, l.Name)
			}
		}
	}
}
