package simcheck

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Metamorphic oracles: properties relating the outputs of two runs whose
// inputs differ in ways that must not matter.
//
//   - Determinism: the same scenario run twice is byte-identical. Holds
//     for every scenario (the simulation is single-threaded and seeded).
//   - Seed independence at noise=0: with noise off and a scheduler that
//     never consumes randomness (steal mode off throughout), the machine
//     seed is inert, so different seeds give identical results. Stealing
//     schedulers draw victim shuffles from the runtime RNG, so this
//     oracle applies only to StealOff scenarios (work-sharing).
//   - Node renumbering: relabeling NUMA nodes with a socket-structure-
//     preserving permutation and mapping the plan's cores and the data
//     placement through it must not change the elapsed time. Exact only
//     for scripted StealOff plans with noise off: stealing consumes RNG
//     draws whose assignment to threads follows node numbering, and
//     ILAN's fastest-node tie-breaks pick lowest indices, so those paths
//     are equivariant only in distribution, not per seed.
//
// The jobs=1 vs jobs=N campaign-equality oracle (the PR 1 contract) is
// exercised through harness.RunCell in this package's integration tests.

// CheckDeterminism runs the scenario twice and reports an error if the
// two digests differ.
func CheckDeterminism(sc Scenario) error {
	a, b := sc.Run(), sc.Run()
	if a.Err != nil || b.Err != nil {
		return nil // run failures are reported by the caller via Result.Err
	}
	if a.Digest != b.Digest {
		return fmt.Errorf("simcheck: determinism violated: %s vs %s for %s",
			a.Digest, b.Digest, sc)
	}
	return nil
}

// CheckSeedIndependence verifies the noise=0 oracle for scenarios it
// soundly applies to (noise off, work-sharing scheduler: no steal-path
// RNG draws). It returns nil for scenarios outside that envelope.
func CheckSeedIndependence(sc Scenario) error {
	// Staggered workload arrivals draw from the machine RNG, so the seed
	// is not inert for spread > 0 even with stealing and noise off.
	if sc.Noise || !stealFree(sc) || (sc.Programs > 1 && sc.ArrivalSpread > 0) {
		return nil
	}
	a := sc.Run()
	b := sc.RunReseeded(sc.Seed ^ 0x5eed5eed5eed5eed)
	if a.Err != nil || b.Err != nil {
		return nil
	}
	if a.Digest != b.Digest {
		return fmt.Errorf("simcheck: noise=0 seed independence violated: %s vs %s for %s",
			a.Digest, b.Digest, sc)
	}
	return nil
}

// stealFree reports whether the scenario's scheduler provably never
// consumes steal-path randomness (static work-sharing: StealOff plans).
func stealFree(sc Scenario) bool {
	return sc.Sched.Kind == int(harness.KindWorkSharing)
}

// --- node-renumbering oracle ---

// RenumberScenario is the renumbering oracle's restricted input: a
// scripted set of StealOff placements on an explicit topology, with
// optional per-node data regions, noise off. Everything is expressed in
// node coordinates so a permutation can be applied mechanically.
type RenumberScenario struct {
	Spec  topology.Spec
	Loops []RenumberLoop
	Steps int
}

// RenumberLoop places each task chunk on (node, within-node core index)
// coordinates. Strict tasks are allowed: with stealing off they are
// exercised purely as placement.
type RenumberLoop struct {
	Iters, Tasks   int
	ComputePerIter float64
	Imbalance      float64
	StreamBytes    int64 // per-iteration bytes of a block-placed region
	// NodeOfTask maps task index -> active-node slot; core within the
	// node is task % CoresPerNode.
	NodeOfTask []int
	Strict     []bool
}

// GenRenumberScenario draws a random renumbering-oracle input.
func GenRenumberScenario(src Source) RenumberScenario {
	spec := GenTopoSpec(src)
	rs := RenumberScenario{Spec: spec, Steps: 1 + src.Intn(2)}
	nNodes := spec.Sockets * spec.NodesPerSocket
	nLoops := 1 + src.Intn(2)
	for i := 0; i < nLoops; i++ {
		iters := 1 + src.Intn(32)
		l := RenumberLoop{
			Iters:          iters,
			Tasks:          1 + src.Intn(iters),
			ComputePerIter: 1e-7 + 2e-6*src.Float64(),
		}
		if src.Intn(2) == 0 {
			l.Imbalance = 0.8 * src.Float64()
		}
		if src.Intn(2) == 0 {
			l.StreamBytes = int64(1+src.Intn(32)) << 12
		}
		for t := 0; t < l.Tasks; t++ {
			l.NodeOfTask = append(l.NodeOfTask, src.Intn(nNodes))
			l.Strict = append(l.Strict, src.Intn(2) == 0)
		}
		rs.Loops = append(rs.Loops, l)
	}
	return rs
}

// GenNodePermutation draws a socket-structure-preserving node permutation:
// sockets are permuted as wholes and nodes are permuted within each
// socket. These are exactly the relabelings that preserve the distance
// matrix, so the machine model must be equivariant under them.
func GenNodePermutation(src Source, spec topology.Spec) []int {
	sockPerm := permute(src, spec.Sockets)
	pi := make([]int, spec.Sockets*spec.NodesPerSocket)
	for s := 0; s < spec.Sockets; s++ {
		within := permute(src, spec.NodesPerSocket)
		for i := 0; i < spec.NodesPerSocket; i++ {
			from := s*spec.NodesPerSocket + i
			pi[from] = sockPerm[s]*spec.NodesPerSocket + within[i]
		}
	}
	return pi
}

func permute(src Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// renumberPlanSched replays fixed per-loop plans.
type renumberPlanSched struct {
	plans map[int]*taskrt.Plan
}

func (s *renumberPlanSched) Name() string { return "renumber" }
func (s *renumberPlanSched) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, _ *taskrt.Occupancy) *taskrt.Plan {
	return s.plans[spec.ID]
}
func (s *renumberPlanSched) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

// RunRenumbered executes the scenario with node labels mapped through pi
// (identity: pass nil) and returns the run digest.
func (rs RenumberScenario) RunRenumbered(pi []int) (string, error) {
	topo := topology.MustNew(rs.Spec)
	if pi == nil {
		pi = make([]int, topo.NumNodes())
		for i := range pi {
			pi[i] = i
		}
	}
	m := machine.New(machine.Config{
		Topo:  topo,
		Seed:  12345, // inert: noise off and stealing off draw nothing
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
	m.Engine().SetLimit(eventLimit)

	prog := &taskrt.Program{Name: "renumber"}
	plans := map[int]*taskrt.Plan{}
	for li, l := range rs.Loops {
		l := l
		var region *memsys.Region
		if l.StreamBytes > 0 {
			region = m.Memory().NewRegion(fmt.Sprintf("r%d", li), int64(l.Iters)*l.StreamBytes)
			// Home the region's blocks through the permutation: node slot i
			// of the original scenario becomes pi[i].
			nodes := make([]int, topo.NumNodes())
			for i := range nodes {
				nodes[i] = pi[i]
			}
			region.PlaceBlocked(nodes)
		}
		spec2 := &taskrt.LoopSpec{
			ID:    li + 1,
			Name:  fmt.Sprintf("loop%d", li),
			Iters: l.Iters,
			Tasks: l.Tasks,
			Demand: func(lo, hi int) (float64, []memsys.Access) {
				sec := 0.0
				for i := lo; i < hi; i++ {
					sec += l.ComputePerIter * genWeight(i, l.Imbalance)
				}
				var acc []memsys.Access
				if region != nil {
					acc = append(acc, memsys.Access{
						Region: region, Offset: int64(lo) * l.StreamBytes,
						Bytes: int64(hi-lo) * l.StreamBytes, Pattern: memsys.Stream,
					})
				}
				return sec, acc
			},
		}
		prog.Loops = append(prog.Loops, spec2)

		// The plan: every core active (in permuted node-major order so the
		// wake order maps 1:1), tasks on (pi[node], task%CoresPerNode).
		plan := &taskrt.Plan{Mode: taskrt.StealOff}
		for slot := 0; slot < topo.NumNodes(); slot++ {
			for _, c := range topo.CoresOfNode(pi[slot]) {
				plan.Active = append(plan.Active, c)
			}
		}
		for t := 0; t < l.Tasks; t++ {
			lo, hi := spec2.ChunkBounds(t)
			cores := topo.CoresOfNode(pi[l.NodeOfTask[t]])
			plan.Place = append(plan.Place, taskrt.TaskPlacement{
				Lo: lo, Hi: hi,
				Core:   cores[t%len(cores)],
				Strict: l.Strict[t],
			})
		}
		plans[li+1] = plan
	}
	for s := 0; s < rs.Steps; s++ {
		for li := range rs.Loops {
			prog.Sequence = append(prog.Sequence, li)
		}
	}

	rt := taskrt.New(m, &renumberPlanSched{plans: plans}, taskrt.DefaultCosts())
	ck := Attach(rt)
	res, err := rt.RunProgram(prog)
	if err != nil {
		return "", err
	}
	if cerr := ck.Err(); cerr != nil {
		return "", cerr
	}
	return fmt.Sprintf("%x|%x|%d|%d", float64(res.Elapsed), res.OverheadSec,
		res.LoopExecutions, res.TasksExecuted), nil
}

// CheckRenumbering runs the scenario under the identity and under pi and
// reports an error if the digests differ.
func CheckRenumbering(rs RenumberScenario, pi []int) error {
	id, err := rs.RunRenumbered(nil)
	if err != nil {
		return fmt.Errorf("simcheck: renumbering base run failed: %w", err)
	}
	perm, err := rs.RunRenumbered(pi)
	if err != nil {
		return fmt.Errorf("simcheck: renumbering permuted run failed: %w", err)
	}
	if id != perm {
		return fmt.Errorf("simcheck: node renumbering changed the run: %s vs %s under pi=%v",
			id, perm, pi)
	}
	return nil
}

// --- helpers used by sim.RNG-driven entry points ---

// RNGSource wraps a sim.RNG as a Source (it already satisfies the
// interface; this alias keeps call sites explicit).
func RNGSource(r *sim.RNG) Source { return r }
