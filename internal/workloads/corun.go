package workloads

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// CoRunWorkload assembles a multiprogrammed workload from benchmark
// copies on one machine: each benchmark builds its own data regions and
// program, and the copies are made mutually submittable by offsetting
// every loop ID into a per-program band of 1000. Distinct IDs matter
// beyond workload validation — schedulers key per-loop state (ILAN's
// PTT) by loop ID, so two copies of the same benchmark must not share
// performance history.
//
// Program names are the benchmark names; when the same benchmark co-runs
// with itself the later copies are suffixed "#2", "#3", ... so workload
// validation (unique program names) and per-program reporting stay
// unambiguous. Every loop is tagged with its program name (even when only
// one benchmark co-runs), so traces and decisions group per program.
func CoRunWorkload(m *machine.Machine, benches []Benchmark, cls Class, spreadSec float64) *taskrt.Workload {
	w := &taskrt.Workload{Name: "corun", ArrivalSpreadSec: spreadSec}
	seen := map[string]int{}
	for i, b := range benches {
		p := b.Build(m, cls)
		seen[b.Name]++
		p.Name = b.Name
		if n := seen[b.Name]; n > 1 {
			p.Name = fmt.Sprintf("%s#%d", b.Name, n)
		}
		// Sequence indexes Loops positionally, so only the IDs move.
		for _, l := range p.Loops {
			l.ID += 1000 * i
			l.Program = p.Name
		}
		w.Programs = append(w.Programs, p)
	}
	return w
}
