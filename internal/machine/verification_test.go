package machine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Simulator verification suite: closed-form expectations for the fluid
// contention model, checked against the event-driven implementation. These
// are the analytic invariants DESIGN.md's substitution argument rests on.

// expectStreamTime is the closed-form duration of n identical local
// streaming tasks started together on one controller: each task's service
// share is BW*eff(n)/n capped by the core port.
func expectStreamTime(rs *memsys.ResourceSet, bytes float64, n int) float64 {
	share := rs.EffectiveBandwidth(0, float64(n)) / float64(n)
	if share > rs.CoreStreamBW {
		share = rs.CoreStreamBW
	}
	return bytes / share
}

// TestVerifySymmetricStreamDurations checks the fluid model against the
// closed form for n = 1..4 co-started local streams.
func TestVerifySymmetricStreamDurations(t *testing.T) {
	for n := 1; n <= 4; n++ {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
		r.PlaceOnNode(0)
		bytes := int64(8 * memsys.BlockSize)
		var finish []sim.Time
		for c := 0; c < n; c++ {
			off := int64(c) * 16 * memsys.BlockSize
			m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: bytes, Pattern: memsys.Stream}},
				func() { finish = append(finish, m.Engine().Now()) })
		}
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		want := expectStreamTime(m.Resources(), float64(bytes), n)
		for _, f := range finish {
			if math.Abs(float64(f)-want) > want*1e-9 {
				t.Fatalf("n=%d: finished at %v, closed form %g", n, f, want)
			}
		}
	}
}

// TestVerifyFluidProportionality: a task with twice the bytes of a
// co-runner takes exactly twice as long once the short task's departure is
// accounted for. Closed form for two tasks A (b) and B (2b) sharing one
// controller with per-stream share s2 while both run and s1 after A ends:
//
//	tA = b/s2;  B has b remaining at tA, then runs alone: tB = tA + b/s1.
func TestVerifyFluidProportionality(t *testing.T) {
	m := quietMachine(t)
	rs := m.Resources()
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	b := float64(8 * memsys.BlockSize)
	var tA, tB sim.Time
	m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: int64(b), Pattern: memsys.Stream}},
		func() { tA = m.Engine().Now() })
	m.Exec(1, 0, []memsys.Access{{Region: r, Offset: 16 * memsys.BlockSize, Bytes: int64(2 * b), Pattern: memsys.Stream}},
		func() { tB = m.Engine().Now() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	s2 := rs.EffectiveBandwidth(0, 2) / 2
	if s2 > rs.CoreStreamBW {
		s2 = rs.CoreStreamBW
	}
	s1 := rs.EffectiveBandwidth(0, 1)
	if s1 > rs.CoreStreamBW {
		s1 = rs.CoreStreamBW
	}
	wantA := b / s2
	wantB := wantA + b/s1
	if math.Abs(float64(tA)-wantA) > wantA*1e-9 {
		t.Fatalf("tA = %v, closed form %g", tA, wantA)
	}
	if math.Abs(float64(tB)-wantB) > wantB*1e-9 {
		t.Fatalf("tB = %v, closed form %g", tB, wantB)
	}
}

// TestVerifyDistanceRatios: remote stream durations scale exactly with the
// topology's distance factors for a lone task.
func TestVerifyDistanceRatios(t *testing.T) {
	spec := topology.SmallTest()
	times := map[int]float64{}
	for _, node := range []int{0, 1, 2} {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 16*memsys.BlockSize)
		r.PlaceOnNode(node)
		var f sim.Time
		m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { f = m.Engine().Now() })
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		times[node] = float64(f)
	}
	if got, want := times[1]/times[0], spec.SameSocketDistance; math.Abs(got-want) > 1e-9 {
		t.Fatalf("same-socket ratio = %g, want %g", got, want)
	}
	// Cross-socket: the lone task is port-capped on both the controller
	// and link components, so the ratio is the controller inflation.
	if got, want := times[2]/times[0], spec.CrossSocketDistance; math.Abs(got-want) > 1e-9 {
		t.Fatalf("cross-socket ratio = %g, want %g", got, want)
	}
}

// TestVerifyMachineQuiesces: after any batch of random tasks completes,
// resource accounting returns exactly to zero (no load leaks).
func TestVerifyMachineQuiesces(t *testing.T) {
	f := func(seeds []uint8) bool {
		m := Build(Spec{Topo: topology.SmallTest()}, 7)
		r := m.Memory().NewRegion("a", 128*memsys.BlockSize)
		r.PlaceBlocked([]int{0, 1, 2, 3})
		n := len(seeds)
		if n > 16 {
			n = 16
		}
		for c := 0; c < n; c++ {
			pat := memsys.Stream
			if seeds[c]%3 == 1 {
				pat = memsys.Gather
			}
			bytes := int64(1+seeds[c]%7) * memsys.BlockSize / 2
			off := int64(seeds[c]%8) * 8 * memsys.BlockSize
			acc := []memsys.Access{{Region: r, Offset: off, Bytes: bytes,
				Span: int64(16) * memsys.BlockSize, Pattern: pat}}
			m.Exec(c, float64(seeds[c])*1e-6, acc, func() {})
		}
		if err := m.Engine().Run(); err != nil {
			return false
		}
		return m.Quiesced()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyGatherSpreadsLoadEvenly: a symmetric gather registers equal
// load on every controller, and the resulting duration matches the
// closed-form max-component time.
func TestVerifyGatherSpreadsLoadEvenly(t *testing.T) {
	m := quietMachine(t)
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceInterleaved([]int{0, 1, 2, 3})
	var f sim.Time
	useful := int64(4 * memsys.BlockSize)
	m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: useful, Span: r.Size(), Pattern: memsys.Gather}},
		func() { f = m.Engine().Now() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	// Raw traffic: useful x 4 (gather line utilization), spread over 4
	// controllers with distances {1, 1.4, 2.2, 2.2} from node 0 in
	// SmallTest. Port cap: total controller bytes / CoreStreamBW.
	raw := float64(useful) * 4 / 4 // per controller
	dists := []float64{1, 1.4, 2.2, 2.2}
	var ctrlBytes, maxCtrl float64
	for _, d := range dists {
		ctrlBytes += raw * d
		if raw*d > maxCtrl {
			maxCtrl = raw * d
		}
	}
	rs := m.Resources()
	// Lone task: per-controller share = full BW (load < 1 clamps to the
	// task's own weight => eff/weight cancels to BW/weightShare... the
	// closed form below mirrors remainingTime's formula directly.
	port := ctrlBytes / rs.CoreStreamBW
	want := port // the port is the binding constraint for a lone gather
	if math.Abs(float64(f)-want) > want*1e-6 {
		t.Fatalf("gather duration %v, want port-capped %g", f, want)
	}
}
