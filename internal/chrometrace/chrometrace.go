// Package chrometrace converts a taskrt execution trace plus the ILAN
// decision trace into Chrome trace-event JSON, the format the Perfetto UI
// (https://ui.perfetto.dev) loads directly. The mapping:
//
//   - one thread track per simulated core, named "core C (node N)" and
//     sorted by core index; task executions become complete ("X") slices
//     named by loop, colored yellow for NUMA-strict tasks and green for
//     stealable ones;
//   - inter-node steals become flow arrows ("s"/"f" event pairs) from the
//     victim core's track to the slice the thief ran the stolen task in;
//   - ILAN phase transitions and steal-policy flips become global instant
//     ("i") events on a dedicated "scheduler" track;
//   - per-node memory-controller bandwidth and queue-pressure load become
//     counter ("C") tracks derived from the trace's resource samples;
//   - multiprogrammed traces (task events tagged with a program name by
//     the workload runner) group each program's slices under its own
//     process track, so co-running programs read as side-by-side
//     processes in the UI. Untagged (single-program) traces emit the one
//     process exactly as before — byte-identical output.
//
// Timestamps are virtual seconds scaled to microseconds (the unit the
// trace-event format mandates).
package chrometrace

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Options is Write's settings argument. The export takes no settings —
// core count, node names and process names all derive from the trace —
// so callers pass the zero value.
type Options struct{}

// event is one trace-event JSON object. Fields are emitted in the fixed
// order below; absent optional fields are dropped via omitempty. Args
// holds one of the arg structs below, or nil.
type event struct {
	Name  string  `json:"name"`
	Ph    string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Cat   string  `json:"cat,omitempty"`
	ID    int     `json:"id,omitempty"`
	BP    string  `json:"bp,omitempty"`
	S     string  `json:"s,omitempty"`
	Cname string  `json:"cname,omitempty"`
	Args  any     `json:"args,omitempty"`
}

// The arg structs declare their fields in byte order of the JSON keys,
// the order encoding/json sorts a map's keys in, so the export reads as
// if each args object were a map — without boxing every value of every
// task event.

// taskArgs are a task slice's args: its iteration range, steal and
// strictness flags, and the attribution breakdown of its duration
// (DESIGN.md §14), shown in the Perfetto slice-details pane. Tracing
// always enables machine attribution, so these args appear in every
// exported trace — which keeps the export byte-identical with -attr on
// or off.
type taskArgs struct {
	CoreSpeedSec    float64 `json:"coreSpeedSec"`
	Exec            int     `json:"exec"`
	From            int     `json:"from"`
	Hi              int     `json:"hi"`
	IdealMemSec     float64 `json:"idealMemSec"`
	IdealSec        float64 `json:"idealSec"`
	InterferenceSec float64 `json:"interferenceSec"`
	Lo              int     `json:"lo"`
	LocalitySec     float64 `json:"localitySec"`
	Loop            int     `json:"loop"`
	Remote          bool    `json:"remote"`
	Stolen          bool    `json:"stolen"`
	Strict          bool    `json:"strict"`
}

// phaseArgs are a phase-change instant's args.
type phaseArgs struct {
	K         int    `json:"k"`
	Loop      int    `json:"loop"`
	Phase     string `json:"phase"`
	StealFull bool   `json:"stealFull"`
	Threads   int    `json:"threads"`
}

// stealArgs are a steal-policy-flip instant's args.
type stealArgs struct {
	K         int  `json:"k"`
	Loop      int  `json:"loop"`
	StealFull bool `json:"stealFull"`
}

// bandwidthArgs and loadArgs are the counter tracks' args.
type bandwidthArgs struct {
	GBs float64 `json:"GB/s"`
}

type loadArgs struct {
	Load float64 `json:"load"`
}

// nameArgs and sortArgs are the metadata events' args.
type nameArgs struct {
	Name string `json:"name"`
}

type sortArgs struct {
	SortIndex int `json:"sort_index"`
}

type doc struct {
	DisplayTimeUnit string  `json:"displayTimeUnit"`
	TraceEvents     []event `json:"traceEvents"`
}

const (
	pid = 1
	// process names the top-level process track.
	process = "ilan-sim"
	// usec converts virtual seconds to trace-event microseconds.
	usec = 1e6
	// cnameStrict / cnameStealable are Chrome trace colors: strict
	// (NUMA-bound, "yellow") vs stealable ("good" = green).
	cnameStrict    = "yellow"
	cnameStealable = "good"
)

// Write emits the trace as Chrome trace-event JSON. decisions may be nil
// (no scheduler instant events); the trace must be non-nil.
func Write(w io.Writer, tr *taskrt.Trace, decisions []obs.Decision, _ Options) error {
	if tr == nil {
		return fmt.Errorf("chrometrace: nil trace")
	}
	cores := 0
	nodeOf := make(map[int]int)
	for _, t := range tr.Tasks {
		if t.Core >= cores {
			cores = t.Core + 1
		}
		if _, ok := nodeOf[t.Core]; !ok {
			nodeOf[t.Core] = t.Node
		}
	}
	schedTid := cores // dedicated track after the last core

	// Program → process mapping. An untagged trace keeps everything on the
	// single historical pid; a tagged (multiprogram) trace gives each
	// program its own process in first-appearance order, pids 2, 3, ...,
	// with the shared tracks (scheduler instants, counters) staying on
	// pid 1 under the top-level process name.
	pidOf := map[string]int{"": pid}
	var programs []string
	for _, t := range tr.Tasks {
		if t.Program == "" {
			continue
		}
		if _, ok := pidOf[t.Program]; !ok {
			pidOf[t.Program] = pid + 1 + len(programs)
			programs = append(programs, t.Program)
		}
	}

	evs := make([]event, 0, 2*len(tr.Tasks)+len(tr.Resources)+(len(programs)+1)*cores+8)

	// Metadata: process name, per-core thread names + sort order, and the
	// scheduler instant-event track. Multiprogram traces repeat the core
	// tracks under each program's process.
	evs = append(evs, event{Name: "process_name", Ph: "M", Pid: pid,
		Args: nameArgs{process}})
	for i, prog := range programs {
		evs = append(evs,
			event{Name: "process_name", Ph: "M", Pid: pidOf[prog],
				Args: nameArgs{process + "/" + prog}},
			event{Name: "process_sort_index", Ph: "M", Pid: pidOf[prog],
				Args: sortArgs{i + 1}})
	}
	coreTracks := func(p int) {
		for c := 0; c < cores; c++ {
			evs = append(evs,
				event{Name: "thread_name", Ph: "M", Pid: p, Tid: c,
					// nodeOf gives 0 for cores that never ran a task.
					Args: nameArgs{fmt.Sprintf("core %d (node %d)", c, nodeOf[c])}},
				event{Name: "thread_sort_index", Ph: "M", Pid: p, Tid: c,
					Args: sortArgs{c}})
		}
	}
	if len(programs) == 0 {
		coreTracks(pid)
	}
	for _, prog := range programs {
		coreTracks(pidOf[prog])
	}
	evs = append(evs,
		event{Name: "thread_name", Ph: "M", Pid: pid, Tid: schedTid,
			Args: nameArgs{"scheduler"}},
		event{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: schedTid,
			Args: sortArgs{schedTid}})

	// Task slices + steal flows. Flow ids are per-steal; the "s" end sits
	// on the victim's track at the slice start time, the "f" end binds to
	// the enclosing slice on the thief's track (bp "e").
	flowID := 0
	for _, t := range tr.Tasks {
		cname := cnameStealable
		if t.Strict {
			cname = cnameStrict
		}
		tpid := pidOf[t.Program]
		evs = append(evs, event{
			Name: t.LoopName, Ph: "X", Cat: "task",
			Ts: t.StartSec * usec, Dur: (t.EndSec - t.StartSec) * usec,
			Pid: tpid, Tid: t.Core, Cname: cname,
			Args: taskArgs{
				CoreSpeedSec: t.CoreSpeedSec, Exec: t.Exec, From: t.FromCore, Hi: t.Hi,
				IdealMemSec: t.IdealMemSec, IdealSec: t.IdealSec,
				InterferenceSec: t.InterferenceSec, Lo: t.Lo, LocalitySec: t.LocalitySec,
				Loop: t.LoopID, Remote: t.Remote, Stolen: t.Stolen, Strict: t.Strict,
			},
		})
		if t.Remote && t.FromCore >= 0 {
			// Steals never cross programs (a runtime invariant), so both
			// flow ends live in the same process.
			flowID++
			evs = append(evs,
				event{Name: "steal", Ph: "s", Cat: "steal", ID: flowID,
					Ts: t.StartSec * usec, Pid: tpid, Tid: t.FromCore},
				event{Name: "steal", Ph: "f", Cat: "steal", ID: flowID, BP: "e",
					Ts: t.StartSec * usec, Pid: tpid, Tid: t.Core})
		}
	}

	// Scheduler instants: one per phase change and per steal-policy flip,
	// derived per loop from the decision trace.
	type loopState struct {
		phase string
		full  bool
		seen  bool
	}
	last := make(map[int]loopState)
	for _, d := range decisions {
		st := last[d.LoopID]
		if !st.seen || st.phase != d.Phase {
			evs = append(evs, event{
				Name: fmt.Sprintf("loop %d → %s", d.LoopID, d.Phase),
				Ph:   "i", S: "g", Cat: "scheduler",
				Ts: d.TimeSec * usec, Pid: pid, Tid: schedTid,
				Args: phaseArgs{K: d.K, Loop: d.LoopID, Phase: d.Phase,
					StealFull: d.StealFull, Threads: d.Threads},
			})
		}
		if st.seen && st.full != d.StealFull {
			evs = append(evs, event{
				Name: fmt.Sprintf("loop %d steal→%s", d.LoopID, stealName(d.StealFull)),
				Ph:   "i", S: "g", Cat: "scheduler",
				Ts: d.TimeSec * usec, Pid: pid, Tid: schedTid,
				Args: stealArgs{K: d.K, Loop: d.LoopID, StealFull: d.StealFull},
			})
		}
		last[d.LoopID] = loopState{phase: d.Phase, full: d.StealFull, seen: true}
	}

	// Counter tracks: per-node MC bandwidth (GB/s, from cumulative byte
	// deltas between successive samples) and instantaneous queue load.
	lastBytes := make(map[int]taskrt.ResSample)
	for _, s := range tr.Resources {
		if prev, ok := lastBytes[s.Node]; ok && s.TimeSec > prev.TimeSec {
			bw := (s.MCBytes - prev.MCBytes) / (s.TimeSec - prev.TimeSec) / 1e9
			evs = append(evs, event{
				Name: fmt.Sprintf("mc bandwidth node %d", s.Node), Ph: "C",
				Ts: s.TimeSec * usec, Pid: pid, Tid: 0,
				Args: bandwidthArgs{bw},
			})
		}
		lastBytes[s.Node] = s
		evs = append(evs, event{
			Name: fmt.Sprintf("mc queue node %d", s.Node), Ph: "C",
			Ts: s.TimeSec * usec, Pid: pid, Tid: 0,
			Args: loadArgs{s.Queue},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc{DisplayTimeUnit: "ms", TraceEvents: evs})
}

func stealName(full bool) string {
	if full {
		return "full"
	}
	return "hierarchical"
}
