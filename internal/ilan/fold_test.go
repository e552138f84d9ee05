package ilan

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// runTraced runs test-class CG under a fresh scheduler with opts, recording
// its decisions into a ring of ringCap entries (0 = default), and returns
// the live scheduler, the program and the run's decision snapshot. execs > 0
// cuts the run after that many loop executions.
func runTraced(t *testing.T, opts Options, ringCap, execs int) (*Scheduler, *taskrt.Program, *obs.Snapshot) {
	t.Helper()
	m := machine.Build(machine.Spec{Topo: topology.Zen4Vera(), Noise: machine.DefaultNoise()}, 7)
	b, _ := workloads.ByName("CG")
	prog := b.Build(m, workloads.ClassTest)
	if execs > 0 {
		prog.Sequence = prog.Sequence[:execs]
	}
	s := MustNew(opts)
	rt := taskrt.New(m, s, taskrt.DefaultCosts())
	run := obs.NewRun(obs.Options{TraceDecisions: true, RingCap: ringCap})
	rt.SetObs(run)
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return s, prog, run.Snapshot()
}

// checkFold folds a complete decision trace and compares it with the live
// scheduler loop by loop using ==. It returns how many loops had a regret.
func checkFold(t *testing.T, live *Scheduler, prog *taskrt.Program, snap *obs.Snapshot) (settled int) {
	t.Helper()
	if int(snap.DecisionsTotal) != len(snap.Decisions) {
		t.Fatalf("ring wrapped (%d of %d retained); the test needs a full trace",
			len(snap.Decisions), snap.DecisionsTotal)
	}
	folded, truncated := FoldDecisions(snap.Decisions)
	if truncated {
		t.Fatal("complete trace reported as truncated")
	}
	for _, l := range prog.Loops {
		wantCfg, wantPhase, wantOK := live.ChosenConfig(l.ID)
		gotCfg, gotPhase, gotOK := folded.ChosenConfig(l.ID)
		if gotOK != wantOK || gotPhase != wantPhase || gotCfg.Threads != wantCfg.Threads ||
			gotCfg.Mask() != wantCfg.Mask() || gotCfg.StealFull != wantCfg.StealFull {
			t.Errorf("loop %s: folded ChosenConfig = %v %v %v, live %v %v %v",
				l.Name, gotCfg, gotPhase, gotOK, wantCfg, wantPhase, wantOK)
		}
		wantTried, gotTried := live.TriedConfigs(l.ID), folded.TriedConfigs(l.ID)
		if len(gotTried) != len(wantTried) {
			t.Errorf("loop %s: folded tried %v, live %v", l.Name, gotTried, wantTried)
		}
		for th, mean := range wantTried {
			if gotTried[th] != mean {
				t.Errorf("loop %s threads %d: folded mean %v, live %v", l.Name, th, gotTried[th], mean)
			}
		}
		wantX, wantM, wantR := live.Regret(l.ID)
		gotX, gotM, gotR := folded.Regret(l.ID)
		if gotX != wantX || gotM != wantM || gotR != wantR {
			t.Errorf("loop %s: folded Regret = %v %v %v, live %v %v %v",
				l.Name, gotX, gotM, gotR, wantX, wantM, wantR)
		}
		if wantR {
			settled++
		}
	}
	return settled
}

// TestFoldDecisionsMatchesLiveScheduler pins the obsdump/loopconv PTT view
// to the live scheduler: folding a run's decision trace must reproduce
// ChosenConfig, TriedConfigs and Regret exactly (==, not within a
// tolerance), because the fold sums the same scores in the same order.
// Runs cut right after a steal-policy trial check the one final state a
// later settled execution would otherwise overwrite.
func TestFoldDecisionsMatchesLiveScheduler(t *testing.T) {
	counters := DefaultOptions()
	counters.CounterGuided = true
	for name, opts := range map[string]Options{"ilan": DefaultOptions(), "ilan-counters": counters} {
		t.Run(name, func(t *testing.T) {
			live, prog, snap := runTraced(t, opts, 0, 0)
			if checkFold(t, live, prog, snap) == 0 {
				t.Fatal("no loop settled; the comparison exercised no regret")
			}
			cuts := 0
			for i, d := range snap.Decisions {
				if d.Phase == PhaseEvalSteal.String() {
					live, prog, cut := runTraced(t, opts, 0, i+1)
					checkFold(t, live, prog, cut)
					cuts++
				}
			}
			if cuts == 0 {
				t.Fatal("no steal-policy trial in the trace")
			}
		})
	}
}

// TestFoldDecisionsReportsTruncation: once the ring drops a loop's first
// executions, the fold must say so and withhold the regret rather than
// compute one from a partial history.
func TestFoldDecisionsReportsTruncation(t *testing.T) {
	live, prog, snap := runTraced(t, DefaultOptions(), 8, 0)
	if int(snap.DecisionsTotal) <= len(snap.Decisions) {
		t.Fatalf("ring of 8 kept all %d decisions; nothing was truncated", snap.DecisionsTotal)
	}
	folded, truncated := FoldDecisions(snap.Decisions)
	if !truncated {
		t.Fatal("wrapped ring not reported as truncated")
	}
	checked := 0
	for _, l := range prog.Loops {
		if _, _, ok := live.Regret(l.ID); !ok {
			continue
		}
		if h := folded.History(l.ID); len(h) > 0 && h[0].K > 1 {
			checked++
			if _, _, ok := folded.Regret(l.ID); ok {
				t.Errorf("loop %s: regret reported from a history starting at k=%d", l.Name, h[0].K)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no settled loop lost its first executions; the case tested nothing")
	}
}
