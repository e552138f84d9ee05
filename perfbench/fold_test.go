package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/traces.txt is `go tool pprof -traces` output for six 10 ms
// samples (the second weighs 20 ms): a memsys leaf, a machine leaf under an
// inlined sim frame, an allocation inside the baseline scheduler, a
// background mark worker, JSON encoding under results.File.Write and a
// write syscall with no simulator frame.
func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"memsys":  1.0 / 7,
		"machine": 2.0 / 7,
		"gc":      2.0 / 7,
		"results": 1.0 / 7,
		"other":   1.0 / 7,
	}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s share = %g, want %g", layer, got[layer], w)
		}
	}
}

func TestFoldTracesRejectsMalformedValue(t *testing.T) {
	in := "Type: cpu\n-----------+-----\n      10xs   runtime.main\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("malformed sample value accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/ilan-sched/ilan/internal/taskrt.(*Runtime).dispatch"}, "taskrt"},
		{[]string{"sort.Search", "github.com/ilan-sched/ilan/internal/obs.(*Histogram).Observe"}, "obs"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgcLarge", "github.com/ilan-sched/ilan/internal/sim.New"}, "gc"},
		{[]string{"internal/runtime/atomic.Load", "runtime.main"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
