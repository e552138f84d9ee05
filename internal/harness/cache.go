package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/topology"
)

// The campaign cache key contract (DESIGN.md §13).
//
// A unit — one (benchmark, scheduler, rep) simulation — is a pure function
// of the inputs below; determinism gates pin that purity (jobs=1 ≡ jobs=8,
// serve on ≡ off, cold ≡ warm cache). The key is the
// SHA-256 of the canonical JSON of those inputs, so two invocations share
// an entry exactly when the simulation they would run is byte-identical.
//
// Included (any change must change the result, so it changes the key):
//   - the simulator/code fingerprint (bumped when the model changes),
//   - the entry version, cellcache.Version (bumped when the stored
//     payload's format changes, as when traces were packed),
//   - benchmark name and workload class (the workload model + parameters),
//   - scheduler name (the name fully determines the scheduler
//     construction, including its ILAN option set: a Kind's name via
//     NewScheduler, an oracle fixed point's via its width and policy),
//   - the repetition index and base seed (they derive the machine seed),
//   - noise model, topology spec, disturbance injection,
//   - machine-model overrides (bandwidths, alpha, beta),
//   - observability settings that change the stored payload (Metrics,
//     TraceDecisions, DecisionCap, TraceTasks for rep 0, and Attr — the
//     attribution report rides inside the cached RunSample),
//   - for multiprogrammed units (an empty bench), the co-run descriptor
//     (benchmark list + arrival spread): it determines the whole workload.
//     Solo units normalize Multi out — a solo simulation never reads it —
//     so RunMulti's solo reference cells share entries with plain solo
//     campaigns. Multi units conversely normalize Attr out (attribution is
//     not collected for co-run units) and carry no Bench (the descriptor
//     names the scenario).
//
// Normalized out (proven output-neutral, so runs share entries across
// them): Reps (the rep index, not the campaign width, feeds the seed),
// Jobs (§7 determinism gate), Track (read-only telemetry), Cache and
// Cancel (the cache never feeds back).
// TestCacheKeyClassifiesEveryConfigField forces every new Config field to
// be classified into one of the two lists.

// simFingerprint identifies the simulator + machine-model code generation.
// Bump it whenever a change alters any campaign output byte (timings,
// metrics, traces): old cache entries then miss instead of serving stale
// results. Tests override it to prove fingerprint skew invalidates keys.
var simFingerprint = "ilan-sim-v10-zen4-fluid-attr"

// cacheKeyInputs is the canonical, JSON-marshaled form of a unit's
// identity. Field order is fixed by the struct, map-free, so the encoding
// is byte-deterministic.
type cacheKeyInputs struct {
	Fingerprint  string              `json:"fingerprint"`
	EntryVersion int                 `json:"entryVersion"`
	Bench        string              `json:"bench"`
	Class        string              `json:"class"`
	Kind         string              `json:"kind"`
	Rep          int                 `json:"rep"`
	Seed         uint64              `json:"seed"`
	Noise        machine.NoiseConfig `json:"noise"`
	Topo         topology.Spec       `json:"topo"`
	Disturb      *machine.Disturb    `json:"disturb"`
	ControllerBW float64             `json:"controllerBW"`
	LinkBW       float64             `json:"linkBW"`
	CoreStreamBW float64             `json:"coreStreamBW"`
	Alpha        *float64            `json:"alpha"`
	Beta         *float64            `json:"beta"`
	Metrics      bool                `json:"metrics"`
	TraceDecs    bool                `json:"traceDecisions"`
	DecisionCap  int                 `json:"decisionCap"`
	TraceTasks   bool                `json:"traceTasks"`
	Attr         bool                `json:"attr"`
	// Multi is nil for solo units; for co-run units it is the workload
	// descriptor and Bench is empty.
	Multi *CoRun `json:"multi,omitempty"`
}

// cacheKey computes a unit's content address. bench names a solo unit's
// benchmark; a co-run unit passes "" and is named by cfg.Multi instead.
// sched names the scheduler (Kind.String for the schedulers under test).
// Each kind of unit drops the field it never reads: a solo simulation
// ignores the co-run descriptor, so RunMulti's solo reference cells share
// entries with plain solo campaigns, and a co-run unit collects no
// attribution (see multiUnitConfig). The zero-value topology normalizes to
// the default the run would actually use, so cfg.Topo == Spec{} and
// cfg.Topo == Zen4Vera() share entries (they run the same machine).
// TraceTasks only affects repetition 0 (harness only records rep 0's
// trace), so it is normalized to false for other reps.
func cacheKey(bench, sched string, cfg Config, rep int) string {
	in := cacheKeyInputs{
		Fingerprint:  simFingerprint,
		EntryVersion: cellcache.Version,
		Bench:        bench,
		Class:        cfg.Class.String(),
		Kind:         sched,
		Rep:          rep,
		Seed:         cfg.Seed,
		Noise:        cfg.Noise,
		Topo:         cfg.TopoSpec(),
		Disturb:      cfg.Disturb,
		ControllerBW: cfg.ControllerBW,
		LinkBW:       cfg.LinkBW,
		CoreStreamBW: cfg.CoreStreamBW,
		Alpha:        cfg.Alpha,
		Beta:         cfg.Beta,
		Metrics:      cfg.Metrics,
		TraceDecs:    cfg.TraceDecisions,
		DecisionCap:  cfg.DecisionCap,
		TraceTasks:   cfg.TraceTasks && rep == 0,
		Attr:         cfg.Attr,
	}
	if bench == "" {
		if cfg.Multi == nil {
			return "" // neither a benchmark nor a co-run: nothing to address
		}
		in.Multi = cfg.Multi
		in.Attr = false
	}
	data, err := json.Marshal(in)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail unless a
		// float override or the arrival spread is NaN/Inf — then no
		// stable key exists, so return an invalid one (the cache rejects
		// it; the unit runs uncached).
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// cachedUnit runs one unit through cfg.Cache: a sound entry under the
// unit's key is replayed, and a miss runs the simulation and commits its
// result before returning. Samples (RunSample, MultiSample, with their obs
// snapshots) round-trip losslessly through JSON: Go prints floats in the
// shortest form that parses back exactly, and the results writer
// re-encodes through the same marshaler. A rep-0 task trace rides along
// as its packed bytes (taskrt.PackedTrace, base64 in the payload), which
// the cache neither decodes nor re-encodes. So a campaign assembled from
// cached units is byte-identical to a cold run.
func cachedUnit[S any](cfg Config, bench, sched string, rep int, run func() (S, error)) (S, error) {
	if cfg.Cache == nil {
		return run()
	}
	key := cacheKey(bench, sched, cfg, rep)
	if s, ok := cacheGet[S](cfg.Cache, key); ok {
		return s, nil
	}
	s, err := run()
	if err == nil {
		cachePut(cfg.Cache, key, s)
	}
	return s, err
}

// cacheGet returns the cached sample for a unit, if a sound one exists.
func cacheGet[S any](c *cellcache.Cache, key string) (S, bool) {
	var s S
	if key == "" {
		return s, false
	}
	data, ok := c.Get(key)
	if !ok {
		return s, false
	}
	if err := json.Unmarshal(data, &s); err != nil {
		// The envelope was sound but the payload does not decode into
		// this build's sample type — treat as corrupt: drop and recompute.
		c.Discard(key)
		var zero S
		return zero, false
	}
	return s, true
}

// cachePut commits a freshly computed unit result. Failures are swallowed
// (the cache is an accelerator, never a correctness dependency); they are
// visible in the cache's error counter.
func cachePut[S any](c *cellcache.Cache, key string, s S) {
	if key == "" {
		return
	}
	data, err := json.Marshal(s)
	if err != nil {
		return
	}
	_ = c.Put(key, data)
}
