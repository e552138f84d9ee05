package main

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Labelled series fold into one float per family; the sum must not depend
// on map iteration order, or two traced campaigns of one seed disagree.
func TestWorkCountersRepeatExactly(t *testing.T) {
	w, err := newWorkload("solo-paper", 101)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.tracedConfig()
	cfg.Class = workloads.ClassTest
	cg, _ := workloads.ByName("CG")
	mx, err := harness.Run([]workloads.Benchmark{cg}, w.kinds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{mx: mx}
	first := workCounters(o)
	if first["engine_events_fired_total"] == 0 || first["machine_mc_bytes_total"] == 0 {
		t.Fatalf("counters missing: %v", first)
	}
	for i := 0; i < 50; i++ {
		if name := counterDiff(workCounters(o), first); name != "" {
			t.Fatalf("fold %d: counter %s differs", i, name)
		}
	}
}
