package harness

import (
	"bytes"
	"strings"
	"testing"

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
		"disturb":       func(c *Config) { c.Disturb = &Disturb{Node: 0} },
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
