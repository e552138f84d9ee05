package taskrt_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	ilansched "github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// recordTrace runs benches under ILAN on the small topology with tracing
// on: one benchmark as a solo program, several as a co-run workload whose
// task events carry Program tags.
func recordTrace(t testing.TB, benches ...string) *taskrt.Trace {
	t.Helper()
	m := machine.Build(machine.Spec{Topo: topology.SmallTest()}, 7)
	var bs []workloads.Benchmark
	for _, name := range benches {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		bs = append(bs, b)
	}
	rt := taskrt.New(m, ilansched.MustNew(ilansched.DefaultOptions()), taskrt.DefaultCosts())
	tr := rt.EnableTracing()
	var err error
	if len(bs) == 1 {
		_, err = rt.RunProgram(bs[0].Build(m, workloads.ClassTest))
	} else {
		_, err = rt.RunWorkload(workloads.CoRunWorkload(m, bs, workloads.ClassTest, 0.001))
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameBits reports whether a and b are deeply equal, comparing floats by
// bit pattern, so NaN equals itself and −0 differs from 0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// specialFloats returns a small trace whose float fields hold −0, ±Inf
// and NaN, with resources in per-task blocks when blocks is set and as
// free samples otherwise.
func specialFloats(blocks bool) *taskrt.Trace {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	tr := &taskrt.Trace{
		Loops: []taskrt.LoopMark{{LoopID: 3, LoopName: "x", Exec: 1, SubmitSec: negZero, DoneSec: inf, Threads: 2}},
		Tasks: []taskrt.TaskEvent{
			{LoopID: 3, LoopName: "x", Exec: 1, Lo: 0, Hi: 4, FromCore: -1, StartSec: negZero, EndSec: nan,
				IdealSec: inf, CoreSpeedSec: -inf, LocalitySec: negZero, InterferenceSec: nan},
			{LoopID: 3, LoopName: "x", Exec: 1, Lo: 4, Hi: 2, Core: 1, Node: 1, Stolen: true, Remote: true,
				StartSec: -inf, EndSec: negZero, IdealMemSec: math.Float64frombits(0x7ff8000000000001)},
		},
	}
	for i, ev := range tr.Tasks {
		for n := range 2 {
			tr.Resources = append(tr.Resources, taskrt.ResSample{TimeSec: ev.EndSec, Node: n,
				MCBytes: []float64{negZero, nan}[i], Queue: []float64{inf, inf}[n]})
		}
	}
	if !blocks {
		tr.Resources[3].Node = 7
	}
	return tr
}

func TestTracePackRoundTrip(t *testing.T) {
	solo := recordTrace(t, "CG")
	corun := recordTrace(t, "CG", "FT", "SP")
	noRes := *solo
	noRes.Resources = nil
	unblocked := *solo
	unblocked.Resources = unblocked.Resources[:len(unblocked.Resources)-1]
	for _, c := range []struct {
		name   string
		tr     *taskrt.Trace
		finite bool // JSON-encodable and reflect.DeepEqual-comparable
	}{
		{"solo", solo, true},
		{"corun", corun, true},
		{"empty", &taskrt.Trace{}, true},
		{"empty-non-nil", &taskrt.Trace{Tasks: []taskrt.TaskEvent{}, Loops: []taskrt.LoopMark{}, Resources: []taskrt.ResSample{}}, true},
		{"no-resources", &noRes, true},
		{"free-samples", &unblocked, true},
		{"special-floats-blocks", specialFloats(true), false},
		{"special-floats-free", specialFloats(false), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			packed := c.tr.Pack()
			got, err := packed.Unpack()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(c.tr)) {
				t.Fatal("decoded trace differs from the original")
			}
			if again := got.Pack(); !bytes.Equal(again, packed) {
				t.Fatal("re-packing the decoded trace gives different bytes")
			}
			if !c.finite {
				return
			}
			if !reflect.DeepEqual(got, c.tr) {
				t.Fatal("decoded trace not reflect.DeepEqual to the original")
			}
			want, err := json.Marshal(c.tr)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, want) {
				t.Fatal("decoded trace JSON-encodes to different bytes")
			}
		})
	}
	// The co-run trace must carry per-program tags, or it covers nothing
	// the solo trace does not.
	progs := map[string]bool{}
	for _, ev := range corun.Tasks {
		progs[ev.Program] = true
	}
	if len(progs) != 3 {
		t.Fatalf("co-run trace tags %d programs, want 3", len(progs))
	}
	if n := len(solo.Resources) / len(solo.Tasks); n != topology.MustNew(topology.SmallTest()).NumNodes() {
		t.Fatalf("solo trace has %d samples per task", n)
	}
}

// TestPackedTraceJSON: a PackedTrace travels through encoding/json as a
// base64 string, and a JSON trace object (the version-1 results form)
// unmarshals into the same packed bytes.
func TestPackedTraceJSON(t *testing.T) {
	tr := recordTrace(t, "Matmul")
	packed := tr.Pack()
	data, err := json.Marshal(struct{ T taskrt.PackedTrace }{packed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"T":"`)) {
		t.Fatalf("packed trace not a JSON string: %.40s", data)
	}
	var back struct{ T taskrt.PackedTrace }
	if err := json.Unmarshal(data, &back); err != nil || !bytes.Equal(back.T, packed) {
		t.Fatalf("base64 round trip: err %v, equal %v", err, bytes.Equal(back.T, packed))
	}
	obj, err := json.Marshal(struct{ T *taskrt.Trace }{tr})
	if err != nil {
		t.Fatal(err)
	}
	var fromObj struct{ T taskrt.PackedTrace }
	if err := json.Unmarshal(obj, &fromObj); err != nil || !bytes.Equal(fromObj.T, packed) {
		t.Fatalf("trace object: err %v, equal %v", err, bytes.Equal(fromObj.T, packed))
	}
	var none struct{ T taskrt.PackedTrace }
	if err := json.Unmarshal([]byte(`{"T":null}`), &none); err != nil || none.T != nil {
		t.Fatalf("null: err %v, got %v", err, none.T)
	}
}

// TestTraceUnpackRejectsNonCanonical: inputs that decode to a valid trace
// but are not what Pack writes for it are errors, so a trace has one
// packed spelling. The fuzz target rarely builds these by chance.
func TestTraceUnpackRejectsNonCanonical(t *testing.T) {
	free := &taskrt.Trace{
		Tasks:     []taskrt.TaskEvent{{LoopName: "a", Program: "b", EndSec: 1}},
		Resources: []taskrt.ResSample{{TimeSec: 1, Node: 1}},
	}
	packed := free.Pack()
	if _, err := packed.Unpack(); err != nil {
		t.Fatal(err)
	}
	patch := func(f func(p []byte) []byte) taskrt.PackedTrace {
		return f(append([]byte(nil), packed...))
	}
	node := bytes.Index(packed, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2}) + 8 // free sample's Node
	strs := bytes.Index(packed, []byte("\x01a\x01b"))
	if node < 8 || strs < 0 {
		t.Fatalf("packed layout not as expected: %x", packed)
	}
	for name, p := range map[string]taskrt.PackedTrace{
		// Node 1 → 0 makes the sample task 0's one-node block, which
		// Pack stores implied.
		"blocks stored free": patch(func(p []byte) []byte { p[node] = 0; return p }),
		"trailing byte":      patch(func(p []byte) []byte { return append(p, 0) }),
		"unsorted strings":   patch(func(p []byte) []byte { p[strs+1], p[strs+3] = 'b', 'a'; return p }),
	} {
		if _, err := p.Unpack(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestTraceUnpackAllocs: decoding allocates a fixed handful of objects —
// the trace, its three slices and the string table — however many tasks
// the trace holds.
func TestTraceUnpackAllocs(t *testing.T) {
	full := recordTrace(t, "CG")
	nodes := len(full.Resources) / len(full.Tasks)
	var counts []float64
	for _, tasks := range []int{10, 100, len(full.Tasks)} {
		tr := *full
		tr.Tasks = tr.Tasks[:tasks]
		tr.Resources = tr.Resources[:tasks*nodes]
		packed := tr.Pack()
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := packed.Unpack(); err != nil {
				panic(err)
			}
		}))
	}
	for _, c := range counts {
		if c != counts[0] || c > 8 {
			t.Fatalf("Unpack allocations for 10, 100, %d tasks = %v, want one constant <= 8", len(full.Tasks), counts)
		}
	}
}

// FuzzTraceDecode: any input either fails to decode or decodes to a trace
// that packs back to exactly the input, and decoding allocates at most a
// constant factor of the input's size.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ILTR\x01"))
	f.Add([]byte(`{"tasks":[]}`))
	f.Add([]byte((&taskrt.Trace{}).Pack()))
	f.Add([]byte(specialFloats(true).Pack()))
	f.Add([]byte(specialFloats(false).Pack()))
	small := recordTrace(f, "Matmul")
	nodes := len(small.Resources) / len(small.Tasks)
	small.Tasks, small.Resources = small.Tasks[:6], small.Resources[:6*nodes]
	f.Add([]byte(small.Pack()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := taskrt.PackedTrace(data).Unpack()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		if again := tr.Pack(); !bytes.Equal(again, data) {
			t.Fatalf("decoded input re-packs to different bytes:\n in  %x\n out %x", data, again)
		}
	})
}
