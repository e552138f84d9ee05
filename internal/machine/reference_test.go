package machine_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/simcheck"
	"github.com/ilan-sched/ilan/internal/topology"
)

// The reference solver: a deliberately naive evaluation of the fluid law
// (DESIGN.md §5) that shares no state and no code with the machine's
// incremental solver. At every task start and completion it recomputes, for
// every active task, the full time the task would take from start to
// finish under the current sharing,
//
//	T_full = work/speed + max( ctrlBytes/CoreStreamBW,
//	                           max_r bytes_r·svc_r / (w_r·EffBW(r, load_r)) )
//
// with svc_r = Σ w_r and load_r = external_r + Σ loadW_r summed from
// scratch over the active tasks. Each task keeps one remaining fraction f,
// drained by dt/T_full, and the solver steps to the next release or
// completion. Demand comes from the reference's own Resolver and CacheSet,
// core speeds from CoreSpeed before any disturbance, and external load from
// the DisturbNode arguments; the machine is consulted only for its Exec
// order (the L3 model depends on touch order, not on time).

// refTol bounds |machine − reference| per completion, relative to the
// makespan. Both solvers evaluate the same closed-form law in float64 at
// the same boundaries and differ only in rounding: the machine scales the
// remaining components by 1 − dt/T at each re-rate and keeps svc/load as
// running sums, the reference keeps one fraction and sums from scratch.
// Each boundary perturbs a completion by a few ulps of the current time,
// and a perturbation δ of one completion moves the others by at most δ
// times the ratio of their rates across that boundary, so after K
// boundaries the gap is a small multiple of K·2.2e-16·makespan. The random
// scenarios have K ≤ 96; the worst gaps measured are ~8e-16 there and
// ~2e-19 in the 256,000-boundary drift test, three orders of magnitude
// inside the bound. A modelling error — a sharer not re-rated, a wrong
// share or load — moves completions by 1e-6 or more of the makespan.
const refTol = 1e-12

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// refTask is one task of a reference scenario. It is released gap seconds
// after its predecessor in the chain completes (the first task of a chain
// at the chain's start time).
type refTask struct {
	compute float64
	acc     []memsys.Access
	gap     float64
}

// refChain is a sequence of tasks on one core.
type refChain struct {
	core  int
	start float64
	tasks []refTask
}

type refDisturb struct {
	node       int
	slow, load float64
}

// refScenario is a machine configuration plus per-core task chains.
// Regions live in a standalone memsys.Memory shared by both solvers as
// read-only placement data.
type refScenario struct {
	spec    topology.Spec
	seed    uint64
	noise   machine.NoiseConfig // TaskJitterSigma must stay 0: jitter is not modelled
	disturb *refDisturb
	chains  []refChain
}

// refJob is the reference's state for one released task.
type refJob struct {
	chain, k int
	core     int
	work     float64   // compute + cache-hit seconds at unit speed
	bytes    []float64 // per-resource bytes
	w, lw    []float64 // per-resource byte and queue-pressure fractions
	f        float64   // remaining fraction of the task
	tFull    float64
}

// refSolve returns every task's completion time under the fluid law.
// speed holds the undisturbed per-core speeds; order is the machine's Exec
// order as (chain, task) pairs.
func refSolve(sc *refScenario, speed []float64, order [][2]int) [][]float64 {
	topo := topology.MustNew(sc.spec)
	rs := memsys.NewResourceSet(topo)
	rv := memsys.NewResolver(topo, rs, memsys.NewCacheSet(topo))
	nres := rs.Count()

	jobs := make([][]*refJob, len(sc.chains))
	fin := make([][]float64, len(sc.chains))
	for ci, ch := range sc.chains {
		jobs[ci] = make([]*refJob, len(ch.tasks))
		fin[ci] = make([]float64, len(ch.tasks))
	}
	var dem memsys.Demand
	for _, o := range order {
		ch := &sc.chains[o[0]]
		rv.Resolve(ch.core, ch.tasks[o[1]].acc, &dem)
		j := &refJob{chain: o[0], k: o[1], core: ch.core,
			work:  ch.tasks[o[1]].compute + dem.CacheSeconds,
			bytes: make([]float64, nres), w: make([]float64, nres), lw: make([]float64, nres), f: 1}
		total := dem.TotalBytes()
		for r := 0; r < nres; r++ {
			if b := dem.ResBytes[r]; b > 0 {
				j.bytes[r] = b
				j.w[r] = b / total
				j.lw[r] = dem.ResLoad[r] / total
			}
		}
		jobs[o[0]][o[1]] = j
	}

	speed = append([]float64(nil), speed...)
	external := make([]float64, nres)
	if d := sc.disturb; d != nil {
		for _, c := range topo.CoresOfNode(d.node) {
			speed[c] *= d.slow
		}
		external[rs.Controller(d.node)] += d.load
	}

	release := make([]float64, len(sc.chains))
	next := make([]int, len(sc.chains))
	for ci, ch := range sc.chains {
		release[ci] = ch.start
	}
	var active []*refJob
	svc, load := make([]float64, nres), make([]float64, nres)
	now := 0.0
	for {
		copy(load, external)
		for r := range svc {
			svc[r] = 0
		}
		for _, j := range active {
			for r := range j.w {
				svc[r] += j.w[r]
				load[r] += j.lw[r]
			}
		}
		tNext, done := math.Inf(1), -1
		for i, j := range active {
			j.tFull = refFullTime(rs, j, speed, svc, load)
			if c := now + j.f*j.tFull; c < tNext {
				tNext, done = c, i
			}
		}
		rel := -1
		for ci, t := range release {
			if t <= tNext && !math.IsInf(t, 1) {
				tNext, rel = t, ci
			}
		}
		if done < 0 && rel < 0 {
			return fin
		}
		dt := tNext - now
		for _, j := range active {
			if j.tFull > 0 {
				if j.f -= dt / j.tFull; j.f < 0 {
					j.f = 0
				}
			}
		}
		now = tNext
		if rel >= 0 {
			active = append(active, jobs[rel][next[rel]])
			release[rel] = math.Inf(1)
			continue
		}
		j := active[done]
		active = append(active[:done], active[done+1:]...)
		fin[j.chain][j.k] = now
		if next[j.chain]++; next[j.chain] < len(jobs[j.chain]) {
			release[j.chain] = now + sc.chains[j.chain].tasks[next[j.chain]].gap
		}
	}
}

// refFullTime is T_full of one task under the given aggregates.
func refFullTime(rs *memsys.ResourceSet, j *refJob, speed, svc, load []float64) float64 {
	var mem, ctrl float64
	for r, b := range j.bytes {
		if b <= 0 {
			continue
		}
		id := memsys.ResourceID(r)
		if rs.IsController(id) {
			ctrl += b
		}
		if t := b * svc[r] / (j.w[r] * rs.EffectiveBandwidth(id, load[r])); t > mem {
			mem = t
		}
	}
	if port := ctrl / rs.CoreStreamBW; port > mem {
		mem = port
	}
	return j.work/speed[j.core] + mem
}

// runRefMachine runs the scenario on a fresh machine and returns the
// completion times, the Exec order, the undisturbed core speeds and the
// machine itself. onDone, if non-nil, runs in every completion callback.
func runRefMachine(tb testing.TB, sc *refScenario, attr bool, onDone func(*machine.Machine)) (fin [][]float64, order [][2]int, speed []float64, m *machine.Machine) {
	tb.Helper()
	m = machine.New(machine.Config{Topo: topology.MustNew(sc.spec), Seed: sc.seed, Noise: sc.noise, Alpha: -1})
	if attr {
		m.EnableAttr()
	}
	speed = make([]float64, m.Topology().NumCores())
	for c := range speed {
		speed[c] = m.CoreSpeed(c)
	}
	if d := sc.disturb; d != nil {
		m.DisturbNode(d.node, d.slow, d.load)
	}
	fin = make([][]float64, len(sc.chains))
	var launch func(ci, k int)
	launch = func(ci, k int) {
		ch := &sc.chains[ci]
		order = append(order, [2]int{ci, k})
		m.Exec(ch.core, ch.tasks[k].compute, ch.tasks[k].acc, func() {
			now := m.Engine().Now()
			fin[ci][k] = float64(now)
			if onDone != nil {
				onDone(m)
			}
			if k+1 == len(ch.tasks) {
				return
			}
			if g := ch.tasks[k+1].gap; g > 0 {
				m.Engine().At(now+sim.Time(g), func() { launch(ci, k+1) })
			} else {
				launch(ci, k+1)
			}
		})
	}
	for ci := range sc.chains {
		fin[ci] = make([]float64, len(sc.chains[ci].tasks))
		m.Engine().At(sim.Time(sc.chains[ci].start), func() { launch(ci, 0) })
	}
	if err := m.Engine().Run(); err != nil {
		tb.Fatal(err)
	}
	return fin, order, speed, m
}

// checkAgainstReference runs the scenario on the machine and on the
// reference and fails on any completion more than refTol·makespan apart.
// It returns the machine for further checks and the largest gap seen,
// relative to the makespan.
func checkAgainstReference(tb testing.TB, sc *refScenario, attr bool, onDone func(*machine.Machine)) (*machine.Machine, float64) {
	tb.Helper()
	got, order, speed, m := runRefMachine(tb, sc, attr, onDone)
	want := refSolve(sc, speed, order)
	var makespan float64
	for _, ch := range want {
		for _, t := range ch {
			makespan = math.Max(makespan, t)
		}
	}
	tol := refTol * makespan
	var worst float64
	for ci := range want {
		for k := range want[ci] {
			d := math.Abs(got[ci][k] - want[ci][k])
			worst = math.Max(worst, d)
			if d > tol || math.IsNaN(d) {
				tb.Fatalf("scenario seed %d, chain %d (core %d) task %d: machine completes at %.17g, "+
					"reference at %.17g (gap %.3g > %.3g = %g·makespan)",
					sc.seed, ci, sc.chains[ci].core, k, got[ci][k], want[ci][k], d, tol, refTol)
			}
		}
	}
	if !m.Quiesced() {
		tb.Fatal("machine not quiesced after the scenario")
	}
	if makespan == 0 {
		return m, 0
	}
	return m, worst / makespan
}

// refFeatures counts the model features a generated scenario exercises.
type refFeatures struct {
	gather, links, noise, disturb, staggered, backToBack, zeroWork int
}

// genRefScenario draws a scenario on SmallTest (2 sockets × 2 nodes × 4
// cores, 2-block L3 per CCD): up to 8 chains on distinct cores with
// staggered starts, back-to-back or gapped successors, stream, gather and
// transpose accesses over node-local, interleaved and blocked regions,
// optional core-speed noise (jitter off) and an optional disturbed node.
func genRefScenario(src simcheck.Source, seed uint64, feat *refFeatures) *refScenario {
	spec := topology.SmallTest()
	sc := &refScenario{spec: spec, seed: seed}
	if src.Intn(2) == 0 {
		sc.noise = machine.NoiseConfig{Enabled: true, CoreSpeedSigma: 0.1 * src.Float64(),
			OutlierProb: 0.5, OutlierSlowdown: 0.5 + 0.5*src.Float64()}
		feat.noise++
	}
	topo := topology.MustNew(spec)
	nodes := []int{0, 1, 2, 3}
	if src.Intn(3) == 0 {
		sc.disturb = &refDisturb{node: src.Intn(len(nodes)), slow: 0.5 + 0.5*src.Float64(), load: 4 * src.Float64()}
		feat.disturb++
	}
	mem := memsys.NewMemory(topo)
	regions := make([]*memsys.Region, 1+src.Intn(3))
	for i := range regions {
		r := mem.NewRegion(fmt.Sprintf("r%d", i), int64(2+src.Intn(6))*memsys.BlockSize)
		switch src.Intn(3) {
		case 0:
			r.PlaceOnNode(src.Intn(len(nodes)))
		case 1:
			r.PlaceInterleaved(nodes)
		default:
			r.PlaceBlocked(nodes)
		}
		regions[i] = r
	}
	cores := make([]int, topo.NumCores())
	for i := range cores {
		j := src.Intn(i + 1)
		cores[i], cores[j] = cores[j], i
	}
	for _, core := range cores[:1+src.Intn(len(cores))] {
		ch := refChain{core: core}
		if src.Intn(2) == 0 {
			ch.start = 2e-4 * src.Float64()
			feat.staggered++
		}
		for k := 1 + src.Intn(6); k > 0; k-- {
			var t refTask
			if len(ch.tasks) > 0 {
				if src.Intn(2) == 0 {
					t.gap = 1e-4 * src.Float64()
				} else {
					feat.backToBack++
				}
			}
			if src.Intn(4) != 0 {
				t.compute = 2e-4 * src.Float64()
			}
			for a := src.Intn(4); a > 0; a-- {
				r := regions[src.Intn(len(regions))]
				b0 := src.Intn(r.NumBlocks())
				span := int64(1+src.Intn(r.NumBlocks()-b0)) * memsys.BlockSize
				acc := memsys.Access{Region: r, Offset: int64(b0) * memsys.BlockSize,
					Bytes: int64(float64(span) * (0.25 + 0.75*src.Float64()))}
				switch src.Intn(3) {
				case 1:
					acc.Pattern, acc.Span = memsys.Gather, span
					feat.gather++
				case 2:
					acc.Pattern = memsys.Transpose
				}
				for b := b0; int64(b-b0)*memsys.BlockSize < span; b++ {
					if topo.SocketOfNode(r.HomeNode(int64(b)*memsys.BlockSize)) != topo.SocketOfNode(topo.NodeOfCore(core)) {
						feat.links++
						break
					}
				}
				t.acc = append(t.acc, acc)
			}
			if t.compute == 0 && len(t.acc) == 0 {
				feat.zeroWork++
			}
			ch.tasks = append(ch.tasks, t)
		}
		sc.chains = append(sc.chains, ch)
	}
	return sc
}

// TestFluidReference checks the machine against the reference on 500
// seeded random scenarios and requires every listed model feature —
// L3 hits included — to have been exercised.
func TestFluidReference(t *testing.T) {
	const scenarios = 500
	var feat refFeatures
	var hits uint64
	var worst float64
	for seed := uint64(1); seed <= scenarios; seed++ {
		sc := genRefScenario(sim.NewRNG(seed), seed, &feat)
		m, gap := checkAgainstReference(t, sc, false, nil)
		h, _ := m.Caches().Stats()
		hits += h
		worst = math.Max(worst, gap)
	}
	t.Logf("%d scenarios, worst gap %.3g·makespan: %d L3 hits, %d gather accesses, %d cross-socket accesses, %d noisy, "+
		"%d disturbed, %d staggered chains, %d back-to-back tasks, %d zero-work tasks",
		scenarios, worst, hits, feat.gather, feat.links, feat.noise, feat.disturb,
		feat.staggered, feat.backToBack, feat.zeroWork)
	for name, n := range map[string]int{"L3 hit": int(hits), "gather": feat.gather,
		"cross-socket": feat.links, "noise": feat.noise, "disturb": feat.disturb,
		"staggered": feat.staggered, "back-to-back": feat.backToBack, "zero-work": feat.zeroWork} {
		if n == 0 {
			t.Errorf("no scenario exercised %s", name)
		}
	}
}

// FuzzFluidReference lets the fuzzer drive the scenario generator.
//
//	go test -fuzz=FuzzFluidReference -fuzztime=30s ./internal/machine
func FuzzFluidReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("fluid-reference-seed-corpus-entry"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, genRefScenario(simcheck.NewByteSource(data), 1, &refFeatures{}), false, nil)
	})
}

// stormScenario is the refresh storm as a reference scenario: n noise-free
// cores of Zen4Vera each run rounds back-to-back memory-bound tasks
// against one controller, so every boundary re-rates all n sharers and
// each round ends in a lockstep co-completion cascade.
func stormScenario(n, rounds int) *refScenario {
	spec := topology.Zen4Vera()
	r := memsys.NewMemory(topology.MustNew(spec)).NewRegion("hot", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	task := refTask{compute: 1e-6, acc: []memsys.Access{{Region: r, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}}
	sc := &refScenario{spec: spec, seed: 3}
	for c := 0; c < n; c++ {
		ch := refChain{core: c}
		for k := 0; k < rounds; k++ {
			ch.tasks = append(ch.tasks, task)
		}
		sc.chains = append(sc.chains, ch)
	}
	return sc
}

// TestRefreshStormMatchesReference checks the storm, including its
// lockstep co-completions (the eager due-now path), against the reference.
func TestRefreshStormMatchesReference(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, gap := checkAgainstReference(t, stormScenario(n, 5), false, nil)
			t.Logf("worst gap %.3g·makespan", gap)
		})
	}
}

// TestFluidReferenceLongRunDrift runs 64 sharers for 2,000 rounds with
// attribution on. Each task streams eight fresh blocks of a region
// interleaved over all eight nodes (the window moves every round, so the
// L3 cannot hold it), so its traffic splits over every controller and the
// cross-socket link with fractional weights: the machine's running svc and
// load sums take hundreds of thousands of fractional adds and subtracts.
// Every attribution residual must stay within obs.AttrTolerance, the
// machine must quiesce, and the final completions must still match the
// reference.
func TestFluidReferenceLongRunDrift(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded float drift check; the race detector slows it ~15x and can find nothing here")
	}
	const n, rounds, blocks = 64, 2000, 1024
	spec := topology.Zen4Vera()
	r := memsys.NewMemory(topology.MustNew(spec)).NewRegion("spread", blocks*memsys.BlockSize)
	r.PlaceInterleaved([]int{0, 1, 2, 3, 4, 5, 6, 7})
	sc := &refScenario{spec: spec, seed: 5}
	for c := 0; c < n; c++ {
		ch := refChain{core: c}
		for k := 0; k < rounds; k++ {
			off := int64((c*8+k*n*8)%blocks+c%8) % (blocks - 8)
			ch.tasks = append(ch.tasks, refTask{compute: 1e-6, acc: []memsys.Access{{Region: r,
				Offset: off * memsys.BlockSize, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}})
		}
		sc.chains = append(sc.chains, ch)
	}
	var worst float64
	m, gap := checkAgainstReference(t, sc, true, func(m *machine.Machine) {
		a := m.LastTaskAttr()
		if d := math.Abs(a.ResidualSec); d > obs.AttrTolerance(a.ElapsedSec) {
			t.Fatalf("task residual %g exceeds tolerance %g", d, obs.AttrTolerance(a.ElapsedSec))
		} else if d > worst {
			worst = d
		}
	})
	if hr := m.Caches().HitRate(); hr > 0.1 {
		t.Fatalf("L3 hit rate %.2f: the drift test must stay memory-bound", hr)
	}
	tot := m.TaskAttr()
	if tot.Tasks != n*rounds {
		t.Fatalf("attributed %d tasks, want %d", tot.Tasks, n*rounds)
	}
	if d := math.Abs(tot.TermSum() - tot.ElapsedSec); d > obs.AttrTolerance(tot.ElapsedSec) {
		t.Fatalf("total residual %g exceeds tolerance %g", d, obs.AttrTolerance(tot.ElapsedSec))
	}
	t.Logf("worst gap %.3g·makespan; worst task residual %.3g s over %d tasks; interference %.3g s",
		gap, worst, n*rounds, tot.InterferenceSec)
}
