package machine

import "github.com/ilan-sched/ilan/internal/topology"

// Spec describes a machine relative to the calibration; every zero field
// keeps the default. Campaigns, the fuzzer and the public API ask for
// machines this way, and Build is the one place that reads a Spec.
type Spec struct {
	Topo  topology.Spec // zero value selects Zen4Vera
	Noise NoiseConfig
	// Disturb, when non-nil, injects a sustained external interferer on
	// one NUMA node (see DisturbNode): the dynamic-asymmetry experiment.
	Disturb *Disturb
	// Bandwidth overrides; zero keeps the memsys calibration.
	ControllerBW float64
	LinkBW       float64
	CoreStreamBW float64
	// Contention-coefficient overrides; nil keeps the default, and 0 is an
	// override (for Beta, it disables the quadratic term).
	Alpha *float64
	Beta  *float64
}

// Disturb describes an external interferer for the asymmetry experiment.
type Disturb struct {
	Node     int
	Slowdown float64 // core speed factor, (0, 1]; 0 selects 0.6
	MemLoad  float64 // controller queue-pressure load; 0 selects 8
}

// TopoSpec returns the topology s runs on: Topo, or Zen4Vera for the zero
// value.
func (s Spec) TopoSpec() topology.Spec {
	if s.Topo.Sockets == 0 {
		return topology.Zen4Vera()
	}
	return s.Topo
}

// Build constructs the machine s describes, with seed driving its
// stochastic components.
func Build(s Spec, seed uint64) *Machine {
	cfg := Config{
		Topo:         topology.MustNew(s.TopoSpec()),
		Seed:         seed,
		Noise:        s.Noise,
		ControllerBW: s.ControllerBW,
		LinkBW:       s.LinkBW,
		CoreStreamBW: s.CoreStreamBW,
	}
	// Config's sentinels: a negative Alpha keeps the default (0 is an
	// override), and a negative Beta forces zero (0 keeps the default).
	cfg.Alpha = -1
	if s.Alpha != nil {
		cfg.Alpha = *s.Alpha
	}
	if s.Beta != nil {
		cfg.Beta = *s.Beta
		if *s.Beta == 0 {
			cfg.Beta = -1
		}
	}
	m := New(cfg)
	if d := s.Disturb; d != nil {
		slow, load := d.Slowdown, d.MemLoad
		if slow == 0 {
			slow = 0.6
		}
		if load == 0 {
			load = 8
		}
		m.DisturbNode(d.Node, slow, load)
	}
	return m
}
