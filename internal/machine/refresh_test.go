package machine

import (
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestRealizedBytesMatchSimulatedTraffic pins the Demand/Realized counter
// split. The fluid model drains jitter-scaled traffic (ft.bytes = b *
// jitter), so with task jitter enabled a lone port-bound task finishes at
// RealizedBytes/CoreStreamBW — not at ResourceBytes/CoreStreamBW. Before
// the split the counters only recorded pre-jitter demand, so no counter
// matched the traffic the simulation actually moved.
func TestRealizedBytesMatchSimulatedTraffic(t *testing.T) {
	m := Build(Spec{Topo: topology.SmallTest(), Noise: NoiseConfig{
		Enabled:         true,
		TaskJitterSigma: 0.2, // jitter only: core speeds stay exactly 1
	}}, 7)
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	bytes := int64(10 * memsys.BlockSize)
	var finished sim.Time
	m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: bytes, Pattern: memsys.Stream}},
		func() { finished = m.Engine().Now() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}

	c := m.Counters()
	demand, realized := c.TotalBytes(), c.TotalRealizedBytes()
	if math.Abs(realized/demand-1) < 1e-4 {
		t.Fatalf("jitter draw was ~1 (realized %g vs demand %g); pick a different seed", realized, demand)
	}
	want := realized / m.Resources().CoreStreamBW
	if math.Abs(float64(finished)-want) > want*1e-6 {
		t.Fatalf("task finished at %v but RealizedBytes predicts %g — realized counters "+
			"do not match simulated traffic", finished, want)
	}
	// The pre-fix failure mode: predicting from demanded bytes.
	wrong := demand / m.Resources().CoreStreamBW
	if math.Abs(float64(finished)-wrong) < wrong*1e-6 {
		t.Fatalf("task finish time matches pre-jitter demand; jitter is not being simulated")
	}
}

// TestRealizedEqualsDemandWithoutNoise: with noise off the two counter
// families must agree exactly — the split changes nothing deterministic.
func TestRealizedEqualsDemandWithoutNoise(t *testing.T) {
	m := quietMachine(t)
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	for core := 0; core < 4; core++ {
		m.Exec(core, 1e-4, []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}, nil)
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	for i := range c.ResourceBytes {
		if c.ResourceBytes[i] != c.RealizedBytes[i] {
			t.Fatalf("resource %d: demand %g != realized %g with noise off",
				i, c.ResourceBytes[i], c.RealizedBytes[i])
		}
	}
	if c.TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

// stormMachine builds a noise-free 64-core machine with a region homed on
// node 0, so every task's traffic lands on one controller.
func stormMachine(tb testing.TB) (*Machine, *memsys.Region) {
	tb.Helper()
	m := Build(Spec{Topo: topology.Zen4Vera()}, 3)
	r := m.Memory().NewRegion("hot", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	return m, r
}

// runStorm keeps n cores busy with memory-bound tasks hammering the one
// controller until each core has executed rounds tasks, returning every
// completion time in callback order.
func runStorm(tb testing.TB, m *Machine, r *memsys.Region, n, rounds int) []sim.Time {
	tb.Helper()
	times := make([]sim.Time, 0, n*rounds)
	acc := []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}
	var launch func(core, left int)
	launch = func(core, left int) {
		m.Exec(core, 1e-6, acc, func() {
			times = append(times, m.Engine().Now())
			if left > 1 {
				launch(core, left-1)
			}
		})
	}
	for core := 0; core < n; core++ {
		launch(core, rounds)
	}
	if err := m.Engine().Run(); err != nil {
		tb.Fatal(err)
	}
	return times
}

// TestRefreshStormAllocs pins the storm path at zero steady-state
// allocations, independent of the co-runner count: after warmup, a full
// round of Exec/complete across n sharers of one controller must not
// allocate — the dirty list is intrusive, fluid tasks are pooled, and
// completion events are moved in place.
func TestRefreshStormAllocs(t *testing.T) {
	perRound := func(n int) float64 {
		m, r := stormMachine(t)
		// Warm the pools: fluid tasks, event heap, per-resource lists.
		runStorm(t, m, r, n, 3)
		acc := []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}
		return testing.AllocsPerRun(10, func() {
			for core := 0; core < n; core++ {
				m.Exec(core, 1e-6, acc, nil)
			}
			if err := m.Engine().Run(); err != nil {
				panic(err)
			}
		})
	}
	small, big := perRound(4), perRound(64)
	t.Logf("per-round allocs: 4 sharers = %g, 64 sharers = %g", small, big)
	if small != 0 || big != 0 {
		t.Fatalf("refresh storm allocates: 4 sharers = %g, 64 sharers = %g, want 0 and 0",
			small, big)
	}
}

// TestFlushRefreshDirectUse covers the exported flush for direct Machine
// users: between Exec and Run the new task's completion event may be
// deferred; FlushRefresh materializes it so the queue can be inspected.
func TestFlushRefreshDirectUse(t *testing.T) {
	m, r := stormMachine(t)
	m.Exec(0, 1e-3, []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}, nil)
	m.FlushRefresh()
	if m.Engine().Pending() == 0 {
		t.Fatal("no completion event pending after FlushRefresh")
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Quiesced() {
		t.Fatal("machine not quiesced")
	}
}
