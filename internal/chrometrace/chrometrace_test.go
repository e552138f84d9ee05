package chrometrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// testTrace builds a two-node, four-core trace with one remote steal and
// per-node resource samples.
func testTrace() *taskrt.Trace {
	return &taskrt.Trace{
		Tasks: []taskrt.TaskEvent{
			{LoopID: 1, LoopName: "alpha", Exec: 1, Lo: 0, Hi: 8,
				Core: 0, Node: 0, StartSec: 0.001, EndSec: 0.002,
				Strict: true, FromCore: -1},
			{LoopID: 1, LoopName: "alpha", Exec: 1, Lo: 8, Hi: 16,
				Core: 1, Node: 0, StartSec: 0.001, EndSec: 0.003,
				Strict: false, FromCore: -1},
			{LoopID: 1, LoopName: "alpha", Exec: 1, Lo: 16, Hi: 24,
				Core: 2, Node: 1, StartSec: 0.002, EndSec: 0.004,
				Stolen: true, Remote: true, FromCore: 0},
			{LoopID: 1, LoopName: "alpha", Exec: 1, Lo: 24, Hi: 32,
				Core: 3, Node: 1, StartSec: 0.002, EndSec: 0.0045,
				Stolen: true, FromCore: 2},
		},
		Loops: []taskrt.LoopMark{
			{LoopID: 1, LoopName: "alpha", Exec: 1, SubmitSec: 0, DoneSec: 0.005, Threads: 4},
		},
		Resources: []taskrt.ResSample{
			{TimeSec: 0.002, Node: 0, MCBytes: 1e6, Queue: 2},
			{TimeSec: 0.002, Node: 1, MCBytes: 5e5, Queue: 1},
			{TimeSec: 0.004, Node: 0, MCBytes: 3e6, Queue: 1},
			{TimeSec: 0.004, Node: 1, MCBytes: 2e6, Queue: 3},
		},
	}
}

func testDecisions() []obs.Decision {
	return []obs.Decision{
		{TimeSec: 0.001, LoopID: 1, K: 1, Phase: "explore", Threads: 4},
		{TimeSec: 0.003, LoopID: 1, K: 2, Phase: "explore", Threads: 4, StealFull: true},
		{TimeSec: 0.005, LoopID: 1, K: 3, Phase: "settled", Threads: 4, StealFull: true},
	}
}

type jsonEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    int            `json:"id"`
	BP    string         `json:"bp"`
	S     string         `json:"s"`
	Cname string         `json:"cname"`
	Args  map[string]any `json:"args"`
}

func render(t *testing.T, tr *taskrt.Trace, ds []obs.Decision, opts Options) []jsonEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr, ds, opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string      `json:"displayTimeUnit"`
		TraceEvents     []jsonEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestWriteTracksAndSlices(t *testing.T) {
	evs := render(t, testTrace(), nil, Options{})

	slicesPerCore := map[int]int{}
	threadNames := map[int]string{}
	for _, e := range evs {
		if e.Ph == "X" {
			slicesPerCore[e.Tid]++
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			threadNames[e.Tid], _ = e.Args["name"].(string)
		}
	}
	for core := 0; core < 4; core++ {
		if slicesPerCore[core] < 1 {
			t.Fatalf("core %d has no slice track", core)
		}
		if threadNames[core] == "" {
			t.Fatalf("core %d has no thread_name metadata", core)
		}
	}
	if threadNames[2] != "core 2 (node 1)" {
		t.Fatalf("core 2 track name = %q", threadNames[2])
	}
	// Strict tasks are yellow, stealable green.
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		strict, _ := e.Args["strict"].(bool)
		want := cnameStealable
		if strict {
			want = cnameStrict
		}
		if e.Cname != want {
			t.Fatalf("slice on core %d: cname = %q, want %q (strict=%v)", e.Tid, e.Cname, want, strict)
		}
	}
}

func TestWriteStealFlows(t *testing.T) {
	evs := render(t, testTrace(), nil, Options{})
	var starts, finishes []jsonEvent
	for _, e := range evs {
		switch {
		case e.Ph == "s":
			starts = append(starts, e)
		case e.Ph == "f":
			finishes = append(finishes, e)
		}
	}
	// Exactly one remote steal in the trace (core 0 -> core 2); the local
	// steal (core 2 -> core 3) draws no arrow.
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("flow events = %d starts, %d finishes, want 1 each", len(starts), len(finishes))
	}
	if starts[0].Tid != 0 || finishes[0].Tid != 2 {
		t.Fatalf("flow from tid %d to tid %d, want 0 -> 2", starts[0].Tid, finishes[0].Tid)
	}
	if starts[0].ID != finishes[0].ID {
		t.Fatalf("flow ids differ: %d vs %d", starts[0].ID, finishes[0].ID)
	}
	if finishes[0].BP != "e" {
		t.Fatalf("flow finish bp = %q, want \"e\" (bind to enclosing slice)", finishes[0].BP)
	}
}

func TestWriteSchedulerInstants(t *testing.T) {
	evs := render(t, testTrace(), testDecisions(), Options{})
	var instants []jsonEvent
	for _, e := range evs {
		if e.Ph == "i" {
			instants = append(instants, e)
		}
	}
	// First decision, steal-policy flip at k=2, phase change at k=3.
	if len(instants) != 3 {
		t.Fatalf("instant events = %d, want 3: %+v", len(instants), instants)
	}
	for _, e := range instants {
		if e.S != "g" {
			t.Fatalf("instant scope = %q, want global", e.S)
		}
		if e.Tid != 4 { // scheduler track sits after cores 0..3
			t.Fatalf("instant on tid %d, want scheduler track 4", e.Tid)
		}
	}
}

func TestWriteCounterTracks(t *testing.T) {
	evs := render(t, testTrace(), nil, Options{})
	bw := map[string]int{}
	queue := map[string]int{}
	var gbps float64
	for _, e := range evs {
		if e.Ph != "C" {
			continue
		}
		switch e.Name {
		case "mc bandwidth node 0":
			bw[e.Name]++
			gbps, _ = e.Args["GB/s"].(float64)
		case "mc bandwidth node 1":
			bw[e.Name]++
		case "mc queue node 0", "mc queue node 1":
			queue[e.Name]++
		}
	}
	if len(bw) != 2 {
		t.Fatalf("bandwidth counter tracks = %v, want both nodes", bw)
	}
	if len(queue) != 2 || queue["mc queue node 0"] != 2 {
		t.Fatalf("queue counter tracks = %v", queue)
	}
	// Node 0: (3e6 - 1e6) bytes over 2 ms = 1e9 B/s = 1 GB/s.
	if gbps < 0.999 || gbps > 1.001 {
		t.Fatalf("node 0 bandwidth = %g GB/s, want 1", gbps)
	}
}

func TestWriteRejectsNilTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil, nil, Options{}); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestWriteTimestampsMicroseconds(t *testing.T) {
	evs := render(t, testTrace(), nil, Options{})
	for _, e := range evs {
		if e.Ph == "X" && e.Tid == 0 {
			if e.Ts != 1000 || e.Dur != 1000 {
				t.Fatalf("core 0 slice ts/dur = %g/%g us, want 1000/1000", e.Ts, e.Dur)
			}
			return
		}
	}
	t.Fatal("core 0 slice not found")
}

// testMultiTrace tags the test trace's tasks with two program names: cores
// 0-1 run "cg", cores 2-3 run "ft" (the steal pair 0->2 is rewired to stay
// inside "ft" because steals never cross programs).
func testMultiTrace() *taskrt.Trace {
	tr := testTrace()
	for i := range tr.Tasks {
		if tr.Tasks[i].Core < 2 {
			tr.Tasks[i].Program = "cg"
		} else {
			tr.Tasks[i].Program = "ft"
		}
	}
	// Keep the remote steal intra-program: thief core 2 stole from core 3.
	tr.Tasks[2].FromCore = 3
	return tr
}

func TestWriteMultiprogramProcesses(t *testing.T) {
	evs := render(t, testMultiTrace(), testDecisions(), Options{})

	// First-appearance order: "cg" (core 0's task) then "ft" -> pids 2, 3.
	procNames := map[int]string{}
	sortIndex := map[int]float64{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "process_name" {
			procNames[e.Pid], _ = e.Args["name"].(string)
		}
		if e.Ph == "M" && e.Name == "process_sort_index" {
			sortIndex[e.Pid], _ = e.Args["sort_index"].(float64)
		}
	}
	if procNames[1] != "ilan-sim" || procNames[2] != "ilan-sim/cg" || procNames[3] != "ilan-sim/ft" {
		t.Fatalf("process names = %v, want pid 1 ilan-sim, pid 2 .../cg, pid 3 .../ft", procNames)
	}
	if sortIndex[2] != 1 || sortIndex[3] != 2 {
		t.Fatalf("process sort indices = %v, want cg=1 ft=2", sortIndex)
	}

	// Task slices land on their program's process; none on the shared pid.
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		want := 2
		if e.Tid >= 2 {
			want = 3
		}
		if e.Pid != want {
			t.Fatalf("slice on core %d has pid %d, want %d", e.Tid, e.Pid, want)
		}
	}

	// Scheduler instants stay on the shared process.
	for _, e := range evs {
		if e.Ph == "i" && e.Pid != 1 {
			t.Fatalf("scheduler instant on pid %d, want shared pid 1", e.Pid)
		}
	}

	// The steal flow stays inside one program's process.
	for _, e := range evs {
		if e.Ph == "s" || e.Ph == "f" {
			if e.Pid != 3 {
				t.Fatalf("steal flow %q on pid %d, want ft's pid 3", e.Ph, e.Pid)
			}
		}
	}

	// Per-program core tracks exist under each program pid, and no core
	// thread_name metadata sits on the shared pid (the tagged layout).
	tracks := map[int]int{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "thread_name" && e.Tid < 4 {
			tracks[e.Pid]++
		}
	}
	if tracks[1] != 0 || tracks[2] != 4 || tracks[3] != 4 {
		t.Fatalf("core thread_name tracks per pid = %v, want 0/4/4", tracks)
	}
}

// TestWriteUntaggedStaysSingleProcess guards the byte-identity contract:
// a trace with no program tags must emit every event on the historical
// single pid, exactly as before multiprogram support.
func TestWriteUntaggedStaysSingleProcess(t *testing.T) {
	evs := render(t, testTrace(), testDecisions(), Options{})
	for _, e := range evs {
		if e.Pid != 1 {
			t.Fatalf("untagged trace emitted event %q with pid %d, want 1", e.Name, e.Pid)
		}
	}
}

// TestWritePinnedBytes pins the export's bytes: the SHA-256 of Write's
// output for a solo trace with decisions and for a tagged co-run trace.
// The hashes were taken when every args object was a map; the typed arg
// structs must encode exactly as those maps did.
func TestWritePinnedBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *taskrt.Trace
		ds   []obs.Decision
		want string
	}{
		{"solo", testTrace(), testDecisions(),
			"2d1633560612d8bbb84ea71ed87de5dcf8208a6bc2b7b732c4b280d7c85ac1e3"},
		{"multi", testMultiTrace(), nil,
			"62e646ea771fbd4380e5c7a68cc3be68eabe784fdd3a4673956ba8df6bf6b083"},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, c.tr, c.ds, Options{}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s\n%s", c.name, got, c.want, buf.Bytes())
		}
	}
}
