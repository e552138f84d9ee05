package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/ilan-sched/ilan/internal/obs"
)

// The parallel experiment executor.
//
// Every simulated run in this repro is independent and bit-reproducible
// per seed: RunOne builds a fresh Machine, Runtime, and Scheduler for each
// (benchmark, kind, rep) unit, and nothing in the simulator packages keeps
// package-level mutable state. The executor exploits that by fanning the
// units of a campaign across a bounded pool of goroutines while keeping
// every observable output byte-identical to the sequential path:
//
//   - Units are dispatched in input order and their results are written
//     into pre-sized slices by index, so aggregation order never depends
//     on goroutine scheduling.
//   - Seeds derive from (cfg.Seed, rep) exactly as before; a run's result
//     does not depend on which worker executes it.
//   - Schedulers are stateful (the PTT), so a scheduler instance is never
//     shared between workers — each unit constructs its own.
//   - On failure, the error for the lowest-numbered unit is returned, the
//     same error the sequential loop would have surfaced first.

// DefaultJobs resolves a jobs setting: values < 1 select GOMAXPROCS (use
// every core the Go runtime will schedule on).
func DefaultJobs(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	return runtime.GOMAXPROCS(0)
}

// ErrInterrupted reports a campaign stopped by a Canceler before every
// unit ran: dispatch stopped, in-flight units finished (and, with a cache
// attached, committed their results), and no aggregate output was
// produced. CLIs map it to a distinct exit code so scripts can tell
// "interrupted, rerun to resume" from a real failure.
var ErrInterrupted = errors.New("harness: campaign interrupted")

// Canceler requests a graceful campaign stop: the pool dispatches no new
// units after Cancel, in-flight units run to completion, and the campaign
// returns ErrInterrupted. A nil *Canceler never cancels, so the zero
// Config needs no branches. Safe for concurrent use (typically Cancel is
// called from a signal-handler goroutine).
type Canceler struct {
	stop atomic.Bool
}

// NewCanceler returns an un-cancelled Canceler.
func NewCanceler() *Canceler { return &Canceler{} }

// Cancel requests the stop. Idempotent.
func (c *Canceler) Cancel() {
	if c != nil {
		c.stop.Store(true)
	}
}

// Cancelled reports whether Cancel was called. Nil-safe.
func (c *Canceler) Cancelled() bool { return c != nil && c.stop.Load() }

// ForEach runs fn(0), ..., fn(n-1) across up to jobs worker goroutines
// (jobs < 1 selects GOMAXPROCS) and returns the error of the
// lowest-numbered failing call, or nil. A panic inside fn is recovered and
// reported as that call's error instead of killing the campaign. Calls are
// dispatched in index order; after the first failure no new calls start,
// but already-started ones run to completion, so the returned error is
// deterministic whenever fn is deterministic per index.
func ForEach(jobs, n int, fn func(i int) error) error {
	return ForEachCancel(jobs, n, nil, fn)
}

// ForEachCancel is ForEach with graceful interruption: once cancel fires,
// no new indices are dispatched, already-started calls run to completion,
// and the result is ErrInterrupted — unless some call also failed, in
// which case the lowest-numbered call error wins (it is the more
// informative outcome, and it is what a sequential run would report).
func ForEachCancel(jobs, n int, cancel *Canceler, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	jobs = DefaultJobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if cancel.Cancelled() {
				return ErrInterrupted
			}
			if err := runSafe(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	idx := make(chan int)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed bool
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := runSafe(fn, i); err != nil {
					errs[i] = err
					mu.Lock()
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	interrupted := false
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := failed
		mu.Unlock()
		if stop {
			break
		}
		if cancel.Cancelled() {
			interrupted = true
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if interrupted {
		return ErrInterrupted
	}
	return nil
}

// fanOut runs every repetition of the named cells across cfg.Jobs workers
// as one tracked campaign (Track.Begin, ForEachCancel, Track.Finish). Unit
// i is repetition i%cfg.Reps of cell i/cfg.Reps; run executes it, stores
// its sample, and returns what the tracker records for it.
func fanOut(cfg Config, label string, cells []string,
	run func(cell, rep int) (*obs.Snapshot, *obs.AttrSnapshot, error)) error {
	decls := make([]CellDecl, len(cells))
	for i, name := range cells {
		decls[i] = CellDecl{Name: name, Units: cfg.Reps}
	}
	cfg.Track.Begin(label, decls)
	cfg.Track.AttachCache(cfg.Cache)
	err := ForEachCancel(cfg.Jobs, len(cells)*cfg.Reps, cfg.Cancel, func(i int) error {
		cell, rep := i/cfg.Reps, i%cfg.Reps
		snap, attr, err := run(cell, rep)
		cfg.Track.UnitDone(cell, rep, snap, attr, err)
		return err
	})
	cfg.Track.Finish(err)
	return err
}

// runSafe invokes fn(i), converting a panic into an error so one broken
// run cannot take down the rest of the campaign.
func runSafe(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
