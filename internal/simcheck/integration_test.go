package simcheck

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// TestCheckerAcrossSchedulers runs one representative scenario per
// scheduler kind — all harness kinds plus the scripted random-plan
// scheduler — under the invariant checker, noise on and off.
func TestCheckerAcrossSchedulers(t *testing.T) {
	loops := []LoopGen{
		{Iters: 40, Tasks: 20, ComputePerIter: 1.5e-6, Imbalance: 0.6, StreamBytes: 8192},
		{Iters: 13, Tasks: 7, ComputePerIter: 8e-7, SpanBytes: 4096, StreamBytes: 4096},
	}
	for kind := -1; kind < numSchedKinds; kind++ {
		for _, noise := range []bool{false, true} {
			sc := Scenario{
				Spec:  checkerTopoSpec(),
				Seed:  0xabc ^ uint64(kind+1),
				Noise: noise,
				Sched: SchedGen{Kind: kind, PlanSeed: 99},
				Loops: loops,
				Steps: 2,
			}
			res := sc.Run()
			if res.Err != nil {
				t.Errorf("%s noise=%v: run failed: %v", sc.SchedName(), noise, res.Err)
				continue
			}
			if res.Check != nil {
				t.Errorf("%s noise=%v: %v", sc.SchedName(), noise, res.Check)
			}
			if res.Loops != len(loops)*sc.Steps {
				t.Errorf("%s noise=%v: checker saw %d loops, want %d",
					sc.SchedName(), noise, res.Loops, len(loops)*sc.Steps)
			}
		}
	}
}

// TestCheckerOnPresetTopologies covers every topology preset with the two
// schedulers that stress stealing hardest (ILAN and baseline).
func TestCheckerOnPresetTopologies(t *testing.T) {
	for name, spec := range topology.Presets() {
		for _, kind := range []int{int(harness.KindBaseline), int(harness.KindILAN)} {
			sc := Scenario{
				Spec:  spec,
				Seed:  31337,
				Sched: SchedGen{Kind: kind},
				Loops: []LoopGen{{Iters: 64, Tasks: 32, ComputePerIter: 1e-6, Imbalance: 0.4, StreamBytes: 4096}},
				Steps: 2,
			}
			res := sc.Run()
			if res.Err != nil {
				t.Errorf("%s/%s: run failed: %v", name, sc.SchedName(), res.Err)
			} else if res.Check != nil {
				t.Errorf("%s/%s: %v", name, sc.SchedName(), res.Check)
			}
		}
	}
}

// TestMetamorphicRandomSweep draws random scenarios from a fixed seed and
// checks every oracle: invariants, determinism, and noise=0 seed
// independence.
func TestMetamorphicRandomSweep(t *testing.T) {
	const runs = 25
	rng := sim.NewRNG(0xfadedfacade)
	for i := 0; i < runs; i++ {
		sc := GenScenario(RNGSource(rng), uint64(i)*0x9e37+1)
		res := sc.Run()
		if res.Err != nil {
			t.Fatalf("run %d: %v\n%s", i, res.Err, sc)
		}
		if res.Check != nil {
			t.Fatalf("run %d: %v\n%s", i, res.Check, sc)
		}
		if err := CheckDeterminism(sc); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := CheckSeedIndependence(sc); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestGenScenarioDimensions pins the generator's co-run and disturbance
// dimensions: co-runs span 2–8 programs, some scenarios disturb a valid
// node, and failure reports name the disturbance.
func TestGenScenarioDimensions(t *testing.T) {
	rng := sim.NewRNG(15)
	progs := map[int]bool{}
	disturbed := 0
	for i := 0; i < 400; i++ {
		sc := GenScenario(RNGSource(rng), uint64(i)+1)
		if sc.Programs > 1 {
			progs[sc.Programs] = true
		}
		if d := sc.Disturb; d != nil {
			disturbed++
			if d.Node < 0 || d.Node >= sc.Spec.Sockets*sc.Spec.NodesPerSocket {
				t.Fatalf("disturbed node %d outside %s", d.Node, sc)
			}
			if !strings.Contains(sc.String(), fmt.Sprintf("disturb=node%d", d.Node)) {
				t.Fatalf("scenario string omits the disturbance: %s", sc)
			}
		}
	}
	for n := 2; n <= 8; n++ {
		if !progs[n] {
			t.Errorf("no %d-program co-run in 400 scenarios (saw %v)", n, progs)
		}
	}
	if len(progs) != 7 || disturbed == 0 {
		t.Errorf("co-run sizes %v, %d disturbed scenarios", progs, disturbed)
	}
}

// TestRenumberingOracle draws random renumbering scenarios and checks that
// socket-structure-preserving node relabelings leave runs byte-identical.
func TestRenumberingOracle(t *testing.T) {
	const runs = 15
	rng := sim.NewRNG(0x5eedbead)
	for i := 0; i < runs; i++ {
		rs := GenRenumberScenario(RNGSource(rng))
		pi := GenNodePermutation(RNGSource(rng), rs.Spec)
		if err := CheckRenumbering(rs, pi); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestJobsEqualityOracle is the campaign-parallelism oracle: fanning
// repetitions across workers must not change a single output byte
// relative to the sequential path.
func TestJobsEqualityOracle(t *testing.T) {
	bench, ok := workloads.ByName("CG")
	if !ok {
		t.Fatal("CG benchmark missing")
	}
	cfg := harness.Config{
		Class: workloads.ClassTest,
		Reps:  4,
		Seed:  7,
		Noise: machine.DefaultNoise(),
		Topo:  topology.SmallTest(),
	}
	for _, kind := range []harness.Kind{harness.KindBaseline, harness.KindILAN} {
		cfg.Jobs = 1
		seq, err := harness.RunCell(bench, kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Jobs = 4
		par, err := harness.RunCell(bench, kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: jobs=1 and jobs=4 campaigns differ:\nseq: %+v\npar: %+v",
				kind, seq, par)
		}
	}
}
