package harness_test

// External-package integration tests: they need internal/results (which
// imports harness, so an in-package test would be an import cycle) to
// assert the user-visible contract — the -out file a warm, cache-served
// campaign writes is byte-identical to the cold run's.

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

func fullConfig(t *testing.T) harness.Config {
	t.Helper()
	return harness.Config{
		Class: workloads.ClassTest,
		Reps:  2,
		Seed:  7,
		Spec:  machine.Spec{Topo: topology.SmallTest()},
		// Every payload the results file can carry: metrics, decision
		// traces, and the rep-0 task trace all ride through the cache.
		Metrics:        true,
		TraceDecisions: true,
		TraceTasks:     true,
	}
}

func outBytes(t *testing.T, mx *harness.Matrix, cfg harness.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := results.FromMatrix(mx, cfg, "cache-test").Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmCampaignOutByteIdentical: cold fill, then a warm rerun served
// entirely from the cache, then a warm parallel rerun — all three -out
// documents must be byte-identical to a cache-less reference.
func TestWarmCampaignOutByteIdentical(t *testing.T) {
	benches := []workloads.Benchmark{mustBenchX(t, "CG"), mustBenchX(t, "Matmul")}
	kinds := []harness.Kind{harness.KindBaseline, harness.KindILAN}
	cfg := fullConfig(t)

	ref, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	refOut := outBytes(t, ref, cfg)

	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cc
	cold, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outBytes(t, cold, cfg), refOut) {
		t.Fatal("cold cached run's -out differs from the cache-less reference")
	}
	units := int64(len(benches) * len(kinds) * cfg.Reps)
	if st := cc.Stats(); st.Misses != units {
		t.Fatalf("cold stats = %+v, want %d misses", st, units)
	}

	warm, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hits != units {
		t.Fatalf("warm stats = %+v, want %d hits", st, units)
	}
	if !bytes.Equal(outBytes(t, warm, cfg), refOut) {
		t.Fatal("warm run's -out not byte-identical to the cold run's")
	}

	// Reopening the cache (a fresh process) and running 8-way must still
	// serve every unit and produce the same bytes.
	cc2, err := cellcache.Open(cc.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cc2
	cfg.Jobs = 8
	warm8, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc2.Stats(); st.Hits != units {
		t.Fatalf("reopened warm stats = %+v, want %d hits", st, units)
	}
	if !bytes.Equal(outBytes(t, warm8, cfg), refOut) {
		t.Fatal("reopened parallel warm run's -out not byte-identical")
	}
}

// TestInterruptResumeOutByteIdentical is the SIGINT story end to end at
// the library level: interrupt a campaign partway, rerun it against the
// same cache, and the resumed -out must match an uninterrupted reference
// byte for byte.
func TestInterruptResumeOutByteIdentical(t *testing.T) {
	benches := []workloads.Benchmark{mustBenchX(t, "CG"), mustBenchX(t, "FT")}
	kinds := []harness.Kind{harness.KindBaseline, harness.KindILAN}
	cfg := fullConfig(t)
	cfg.Jobs = 1

	ref, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	refOut := outBytes(t, ref, cfg)

	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cc
	cfg.Cancel = harness.NewCanceler()
	// The "SIGINT" lands while unit 3 builds; it finishes and commits,
	// then dispatch stops.
	var builds int
	interruptible := benches[0]
	realBuild := interruptible.Build
	interruptible.Build = func(m *machine.Machine, cls workloads.Class) *taskrt.Program {
		builds++
		if builds == 3 {
			cfg.Cancel.Cancel()
		}
		return realBuild(m, cls)
	}
	_, err = harness.Run([]workloads.Benchmark{interruptible, benches[1]}, kinds, cfg, nil)
	if !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	committed := cc.Len()
	if committed == 0 || committed >= len(benches)*len(kinds)*cfg.Reps {
		t.Fatalf("interrupted run committed %d units, want a strict subset", committed)
	}

	cfg.Cancel = harness.NewCanceler()
	resumed, err := harness.Run(benches, kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hits < int64(committed) {
		t.Fatalf("resume replayed only %d of %d committed units", st.Hits, committed)
	}
	if !bytes.Equal(outBytes(t, resumed, cfg), refOut) {
		t.Fatal("resumed campaign's -out differs from the uninterrupted reference")
	}
}

func mustBenchX(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}
