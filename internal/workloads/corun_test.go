package workloads

import "testing"

// TestCoRunWorkloadTagsEveryProgram: the co-run builder owns program tags
// (the runtime never writes them), so every loop carries its program's
// name — even when a single benchmark "co-runs" alone, whose trace must
// still group as a named program.
func TestCoRunWorkloadTagsEveryProgram(t *testing.T) {
	cg, _ := ByName("CG")
	ft, _ := ByName("FT")
	for _, benches := range [][]Benchmark{{cg}, {cg, ft, cg}} {
		w := CoRunWorkload(newMachine(), benches, ClassTest, 0)
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(w.Programs) != len(benches) {
			t.Fatalf("%d programs for %d benchmarks", len(w.Programs), len(benches))
		}
		for _, p := range w.Programs {
			if p.Name == "" {
				t.Fatal("co-run program left unnamed")
			}
			for _, l := range p.Loops {
				if l.Program != p.Name {
					t.Fatalf("loop %d of program %q tagged %q", l.ID, p.Name, l.Program)
				}
			}
		}
	}
}
