package machine

import (
	"slices"
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestBuildDefaults pins how Build reads a zero Spec: the Zen4Vera
// topology and every memsys calibration default.
func TestBuildDefaults(t *testing.T) {
	m := Build(Spec{}, 1)
	if got, want := m.Topology().Spec(), topology.Zen4Vera(); got != want {
		t.Fatalf("zero Spec built topology %+v, want Zen4Vera %+v", got, want)
	}
	ctrl, link, port, alpha, beta := memsys.DefaultBandwidth()
	rs := m.Resources()
	if rs.ControllerBW != ctrl || rs.LinkBW != link || rs.CoreStreamBW != port ||
		rs.Alpha != alpha || rs.Beta != beta {
		t.Fatalf("zero Spec changed the calibration: %+v", rs)
	}
}

// TestBuildCoefficientOverrides pins the pointer semantics of Alpha and
// Beta: nil keeps the default, and a pointer to 0 is a real override (for
// Beta, it disables the quadratic term), as are the bandwidths.
func TestBuildCoefficientOverrides(t *testing.T) {
	_, _, _, alpha, beta := memsys.DefaultBandwidth()
	zero, a, b := 0.0, 0.2, 0.004
	for _, tc := range []struct {
		name        string
		spec        Spec
		alpha, beta float64
	}{
		{"nil", Spec{}, alpha, beta},
		{"zero", Spec{Alpha: &zero, Beta: &zero}, 0, 0},
		{"set", Spec{Alpha: &a, Beta: &b}, a, b},
	} {
		tc.spec.Topo = topology.SmallTest()
		rs := Build(tc.spec, 1).Resources()
		if rs.Alpha != tc.alpha || rs.Beta != tc.beta {
			t.Errorf("%s: alpha %g beta %g, want %g %g", tc.name, rs.Alpha, rs.Beta, tc.alpha, tc.beta)
		}
	}
	rs := Build(Spec{Topo: topology.SmallTest(), ControllerBW: 1e9, LinkBW: 2e9, CoreStreamBW: 3e9}, 1).Resources()
	if rs.ControllerBW != 1e9 || rs.LinkBW != 2e9 || rs.CoreStreamBW != 3e9 {
		t.Fatalf("bandwidth overrides not applied: %+v", rs)
	}
}

// TestBuildDisturbDefaults: a Disturb with zero slowdown and load builds
// the same machine as one that spells out 0.6 and 8 — the same core
// speeds, the same controller load, and the same run.
func TestBuildDisturbDefaults(t *testing.T) {
	spec := Spec{Topo: topology.SmallTest(), Noise: DefaultNoise()}
	for node := 0; node < 4; node++ {
		implicit, explicit := spec, spec
		implicit.Disturb = &Disturb{Node: node}
		explicit.Disturb = &Disturb{Node: node, Slowdown: 0.6, MemLoad: 8}
		a, b := Build(implicit, 11), Build(explicit, 11)
		for c := 0; c < a.Topology().NumCores(); c++ {
			if a.CoreSpeed(c) != b.CoreSpeed(c) {
				t.Fatalf("node %d: core %d speed %g vs %g", node, c, a.CoreSpeed(c), b.CoreSpeed(c))
			}
		}
		ctrl := a.Resources().Controller(node)
		if la, lb := a.ls[ctrl].load, b.ls[ctrl].load; la != 8 || la != lb {
			t.Fatalf("node %d: controller load %g vs %g, want 8", node, la, lb)
		}
		if ta, tb := runDisturbed(t, a), runDisturbed(t, b); !slices.Equal(ta, tb) {
			t.Fatalf("node %d: runs diverged: %v vs %v", node, ta, tb)
		}
	}
}

// runDisturbed streams from every node on every core and returns the
// completion times in completion order.
func runDisturbed(t *testing.T, m *Machine) []sim.Time {
	t.Helper()
	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceBlocked([]int{0, 1, 2, 3})
	var times []sim.Time
	for c := 0; c < m.Topology().NumCores(); c++ {
		off := int64(c) * 16 * memsys.BlockSize
		m.Exec(c, 1e-3, []memsys.Access{{Region: r, Offset: off, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { times = append(times, m.Engine().Now()) })
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	return times
}
