package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// The tests in this file run under t.Parallel(): the harness keeps no
// package-level mutable state, and testConfig() returns a fresh value per
// call, so concurrent campaigns must not interfere — that property is
// exactly what the worker pool relies on.

func TestForEachRunsAllIndices(t *testing.T) {
	t.Parallel()
	for _, jobs := range []int{1, 3, 8, 0} {
		var seen sync.Map
		var count atomic.Int64
		if err := ForEachCancel(jobs, 100, nil, func(i int) error {
			if _, dup := seen.LoadOrStore(i, true); dup {
				return fmt.Errorf("index %d ran twice", i)
			}
			count.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if count.Load() != 100 {
			t.Fatalf("jobs=%d: ran %d of 100 indices", jobs, count.Load())
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	t.Parallel()
	boom3 := errors.New("boom 3")
	for _, jobs := range []int{1, 2, 8} {
		err := ForEachCancel(jobs, 20, nil, func(i int) error {
			switch i {
			case 3:
				return boom3
			case 7:
				return errors.New("boom 7")
			}
			return nil
		})
		if !errors.Is(err, boom3) {
			t.Fatalf("jobs=%d: got %v, want the index-3 error", jobs, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	t.Parallel()
	var ran atomic.Int64
	err := ForEachCancel(2, 1000, nil, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d of 1000 jobs ran after an index-0 failure", n)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	t.Parallel()
	for _, jobs := range []int{1, 4} {
		var completed atomic.Int64
		err := ForEachCancel(jobs, 10, nil, func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			completed.Add(1)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") ||
			!strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("jobs=%d: panic not surfaced as error: %v", jobs, err)
		}
		if completed.Load() == 0 {
			t.Fatalf("jobs=%d: panic killed every other run", jobs)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, -5} {
		if err := ForEachCancel(4, n, nil, func(int) error { return errors.New("never") }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestDefaultJobsResolution(t *testing.T) {
	t.Parallel()
	if DefaultJobs(7) != 7 {
		t.Fatal("explicit jobs overridden")
	}
	if DefaultJobs(0) < 1 || DefaultJobs(-1) < 1 {
		t.Fatal("defaulted jobs below 1")
	}
}

func TestForEachCancelPreCancelled(t *testing.T) {
	t.Parallel()
	c := NewCanceler()
	c.Cancel()
	for _, jobs := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachCancel(jobs, 50, c, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("jobs=%d: got %v, want ErrInterrupted", jobs, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("jobs=%d: %d units dispatched after pre-cancel", jobs, n)
		}
	}
}

// Cancelling mid-campaign must stop dispatch but let every started unit
// finish — the property the cache's resume story relies on (an in-flight
// unit's result is committed, never torn).
func TestForEachCancelStopsDispatchFinishesInFlight(t *testing.T) {
	t.Parallel()
	for _, jobs := range []int{1, 4} {
		c := NewCanceler()
		var started, finished atomic.Int64
		err := ForEachCancel(jobs, 1000, c, func(i int) error {
			started.Add(1)
			if i == 0 {
				c.Cancel()
			}
			finished.Add(1)
			return nil
		})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("jobs=%d: got %v, want ErrInterrupted", jobs, err)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("jobs=%d: %d units started but only %d finished", jobs, s, f)
		}
		if n := started.Load(); n > int64(100) {
			t.Fatalf("jobs=%d: %d of 1000 units dispatched after cancel", jobs, n)
		}
	}
}

// A real unit failure is more informative than the interruption it races
// with: the unit error must win.
func TestForEachCancelUnitErrorWins(t *testing.T) {
	t.Parallel()
	boom := errors.New("unit exploded")
	for _, jobs := range []int{1, 4} {
		c := NewCanceler()
		err := ForEachCancel(jobs, 100, c, func(i int) error {
			if i == 0 {
				c.Cancel()
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: got %v, want the unit error", jobs, err)
		}
	}
}

func TestCancelerNilSafe(t *testing.T) {
	t.Parallel()
	var c *Canceler
	c.Cancel() // must not panic
	if c.Cancelled() {
		t.Fatal("nil canceler reports cancelled")
	}
	live := NewCanceler()
	if live.Cancelled() {
		t.Fatal("fresh canceler reports cancelled")
	}
	live.Cancel()
	live.Cancel() // idempotent
	if !live.Cancelled() {
		t.Fatal("cancel lost")
	}
}

// Interrupting a campaign at the Run level surfaces ErrInterrupted, and a
// rerun against the same cache completes from the committed units.
func TestRunInterruptedThenResumes(t *testing.T) {
	t.Parallel()
	benches := []workloads.Benchmark{mustBench(t, "CG"), mustBench(t, "Matmul")}
	kinds := []Kind{KindBaseline, KindILAN}

	ref := testConfig()
	ref.Jobs = 1
	want, err := Run(benches, kinds, ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ref
	cfg.Cache = cc
	cfg.Cancel = NewCanceler()
	// Cancel from inside the first unit's program build — the SIGINT-
	// mid-unit shape: with Jobs=1 that unit still runs to completion and
	// commits, then the pool refuses to dispatch the next one. The wrapped
	// benchmark keeps its name, so its cache entries are the real CG's.
	interruptible := benches[0]
	realBuild := interruptible.Build
	interruptible.Build = func(m *machine.Machine, cls workloads.Class) *taskrt.Program {
		cfg.Cancel.Cancel()
		return realBuild(m, cls)
	}
	_, err = Run([]workloads.Benchmark{interruptible, benches[1]}, kinds, cfg, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	committed := cc.Len()
	if committed == 0 {
		t.Fatal("interrupted campaign committed nothing to the cache")
	}

	// Resume: same config, fresh canceler. The committed units hit.
	cfg.Cancel = NewCanceler()
	got, err := Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hits < int64(committed) {
		t.Fatalf("resume hit %d entries, want at least the %d committed", st.Hits, committed)
	}
	want.EachCell(func(c *Cell) {
		g := got.Cell(c.Bench, c.Kind)
		for r := range c.Samples {
			if !reflect.DeepEqual(c.Samples[r], g.Samples[r]) {
				t.Fatalf("%s/%v rep %d: resumed run diverged from uninterrupted reference",
					c.Bench, c.Kind, r)
			}
		}
	})
}

// TestRunParallelMatchesSequential is the executor's determinism contract:
// the same campaign run sequentially and with 8 workers must produce
// byte-identical reports and bit-identical samples.
func TestRunParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	benches := []workloads.Benchmark{mustBench(t, "CG"), mustBench(t, "Matmul")}
	kinds, err := KindsFor("all")
	if err != nil {
		t.Fatal(err)
	}
	seqCfg := testConfig()
	seqCfg.Reps = 3
	seqCfg.Jobs = 1
	parCfg := seqCfg
	parCfg.Jobs = 8

	seq, err := Run(benches, kinds, seqCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(benches, kinds, parCfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	var seqCells, parCells []*Cell
	seq.EachCell(func(c *Cell) { seqCells = append(seqCells, c) })
	par.EachCell(func(c *Cell) { parCells = append(parCells, c) })
	if len(seqCells) != len(parCells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seqCells), len(parCells))
	}
	for i := range seqCells {
		s, p := seqCells[i], parCells[i]
		if s.Bench != p.Bench || s.Kind != p.Kind || len(s.Samples) != len(p.Samples) {
			t.Fatalf("cell %d shape differs: %s/%v vs %s/%v", i, s.Bench, s.Kind, p.Bench, p.Kind)
		}
		for r := range s.Samples {
			if !reflect.DeepEqual(s.Samples[r], p.Samples[r]) {
				t.Fatalf("%s/%v rep %d diverged:\nseq: %+v\npar: %+v",
					s.Bench, s.Kind, r, s.Samples[r], p.Samples[r])
			}
		}
	}

	for _, exp := range []string{"fig2", "table1", "all"} {
		var a, b bytes.Buffer
		if err := Report(&a, exp, seq); err != nil {
			t.Fatal(err)
		}
		if err := Report(&b, exp, par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("report %s not byte-identical between jobs=1 and jobs=8", exp)
		}
	}
}

func TestRunCellParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	b := mustBench(t, "FT")
	seqCfg := testConfig()
	seqCfg.Reps = 4
	seqCfg.Jobs = 1
	parCfg := seqCfg
	parCfg.Jobs = 8
	seq, err := RunCell(b, KindILAN, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCell(b, KindILAN, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range seq.Samples {
		if !reflect.DeepEqual(seq.Samples[r], par.Samples[r]) {
			t.Fatalf("rep %d diverged: %+v vs %+v", r, seq.Samples[r], par.Samples[r])
		}
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	b := mustBench(t, "CG")
	seqCfg := testConfig()
	seqCfg.Reps = 2
	seqCfg.Jobs = 1
	parCfg := seqCfg
	parCfg.Jobs = 8
	values := []float64{0, 0.001, 0.003}
	seq, err := Sweep(b, SweepBeta, values, seqCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(b, SweepBeta, values, parCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d diverged:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
}

func TestOracleParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	seqCfg := testConfig()
	seqCfg.Reps = 1
	seqCfg.Jobs = 1
	parCfg := seqCfg
	parCfg.Jobs = 8
	seq, err := RunOracle(benches, seqCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunOracle(benches, parCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	ReportOracle(&a, seq)
	ReportOracle(&b, par)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("oracle reports differ:\nseq:\n%s\npar:\n%s", a.String(), b.String())
	}
}

// TestRunPanicIsolation: a scheduler kind whose construction panics (an
// unknown Kind) must surface as a campaign error, not crash the process —
// one broken run cannot take down a multi-hour campaign.
func TestRunPanicIsolation(t *testing.T) {
	t.Parallel()
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	for _, jobs := range []int{1, 4} {
		cfg := testConfig()
		cfg.Jobs = jobs
		_, err := Run(benches, []Kind{KindBaseline, Kind(42)}, cfg, nil)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("jobs=%d: panic not isolated: %v", jobs, err)
		}
	}
}
