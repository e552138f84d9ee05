package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/workloads"
)

func TestRunOracleSmall(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 1
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	var calls int
	res, err := RunOracle(benches, cfg, func(string, int, bool) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	// SmallTest: 16 cores, node size 4 => widths {4,8,12,16} x 2 policies.
	if len(r.Points) != 8 || calls != 8 {
		t.Fatalf("evaluated %d configs (%d calls), want 8", len(r.Points), calls)
	}
	if r.Best.MeanSec <= 0 || r.ILANSec <= 0 || r.BaselineSec <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// The oracle is the min over its own points.
	for _, p := range r.Points {
		if p.MeanSec < r.Best.MeanSec {
			t.Fatalf("best (%+v) is not minimal (found %+v)", r.Best, p)
		}
	}
	if r.Efficiency() <= 0 {
		t.Fatalf("efficiency = %g", r.Efficiency())
	}
	var buf bytes.Buffer
	ReportOracle(&buf, res)
	if !strings.Contains(buf.String(), "Matmul") || !strings.Contains(buf.String(), "efficiency") {
		t.Fatalf("report wrong:\n%s", buf.String())
	}
}

func TestOracleEfficiencyBounded(t *testing.T) {
	// The oracle can never be slower than a fixed configuration ILAN could
	// settle on, so efficiency is almost always <= ~1 (modulo noise and
	// ILAN's full-policy evaluation run); sanity-bound it.
	cfg := testConfig()
	cfg.Reps = 1
	res, err := RunOracle([]workloads.Benchmark{mustBench(t, "CG")}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := res[0].Efficiency(); e > 1.2 {
		t.Fatalf("efficiency %g implausibly above 1", e)
	}
}

// TestOracleFixedPointsRunOnTheUnitMachine pins that the fixed points run
// on the machine RunOne builds, disturbance and model overrides included:
// an oracle measured on the undisturbed machine would be compared against
// a disturbed ILAN run and report a meaningless efficiency.
func TestOracleFixedPointsRunOnTheUnitMachine(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "CG")}
	run := func(mut func(*Config)) OracleResult {
		t.Helper()
		cfg := testConfig()
		cfg.Reps = 1
		mut(&cfg)
		res, err := RunOracle(benches, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	plain := run(func(*Config) {})
	for name, mut := range map[string]func(*Config){
		"disturb":       func(c *Config) { c.Disturb = &machine.Disturb{Node: 0} },
		"controller-bw": func(c *Config) { c.ControllerBW = 5e9 },
	} {
		got := run(mut)
		for i, p := range got.Points {
			if p.MeanSec == plain.Points[i].MeanSec {
				t.Errorf("%s: fixed point %d/%v ran %gs, the same as without the override",
					name, p.Threads, p.StealFull, p.MeanSec)
			}
		}
	}
}

// oracleUnits is the unit count of an oracle study on testConfig's
// SmallTest machine: widths {4,8,12,16} x 2 policies, plus ILAN and the
// baseline, per benchmark and rep.
func oracleUnits(benches, reps int) int64 { return int64(benches * (8 + 2) * reps) }

// TestRunOracleCachesFixedPoints: the fixed points are ordinary cached
// units, so a second study on the same cache recomputes nothing and
// reports the same result.
func TestRunOracleCachesFixedPoints(t *testing.T) {
	cc, err := cellcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Cache = cc
	benches := []workloads.Benchmark{mustBench(t, "Matmul"), mustBench(t, "CG")}
	cold, err := RunOracle(benches, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Misses != oracleUnits(len(benches), cfg.Reps) {
		t.Fatalf("cold run: %d misses, want one per unit (%d)", st.Misses, oracleUnits(len(benches), cfg.Reps))
	}
	before := cc.Stats()
	warm, err := RunOracle(benches, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Misses != before.Misses || st.Hits-before.Hits != oracleUnits(len(benches), cfg.Reps) {
		t.Fatalf("warm run: %d misses, %d hits; want 0 misses, %d hits",
			st.Misses-before.Misses, st.Hits-before.Hits, oracleUnits(len(benches), cfg.Reps))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm oracle differs from cold:\n%+v\n%+v", warm, cold)
	}
}

// TestRunOracleTracksEveryUnit: the whole study — every benchmark's fixed
// points, ILAN and the baseline — is one tracked campaign, so a monitor
// sees every unit under one Begin.
func TestRunOracleTracksEveryUnit(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 4
	cfg.Track = NewTracker()
	benches := []workloads.Benchmark{mustBench(t, "Matmul"), mustBench(t, "CG")}
	if _, err := RunOracle(benches, cfg, nil); err != nil {
		t.Fatal(err)
	}
	s := cfg.Track.Snapshot()
	want := oracleUnits(len(benches), cfg.Reps)
	if s.UnitsTotal != want || s.UnitsDone != want || !s.Finished {
		t.Fatalf("tracker: %d/%d units done (finished=%v), want %d/%d finished",
			s.UnitsDone, s.UnitsTotal, s.Finished, want, want)
	}
}
