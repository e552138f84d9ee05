// Package looplang is the reproduction's analogue of the paper's loop
// conversion tool: the authors built a utility that rewrites `omp for`
// constructs into `omp taskloop` so existing data-parallel applications can
// run under ILAN. Here, where applications are workload models rather than
// C++ sources, the equivalent entry point is a declarative description: a
// JSON document describing an application's data regions and loops, which
// this package validates and compiles into a runnable taskloop Program.
//
// Example document:
//
//	{
//	  "name": "myapp",
//	  "steps": 30,
//	  "regions": [
//	    {"name": "grid", "placement": "blocked"},
//	    {"name": "vec", "sizeMB": 192, "placement": "blocked"}
//	  ],
//	  "loops": [
//	    {
//	      "name": "sweep", "iters": 4096, "tasks": 256,
//	      "computeMicros": 120,
//	      "imbalance": {"blocks": 24, "amplitude": 0.5},
//	      "streams": [{"region": "grid", "kbPerIter": 150}],
//	      "spans": [{"region": "vec", "kbPerIter": 40, "pattern": "gather"}]
//	    }
//	  ],
//	  "sequence": ["sweep"]
//	}
//
// Regions without an explicit size are auto-sized to the largest stream
// that walks them (iters * kbPerIter).
package looplang

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Document is the root of a workload description.
type Document struct {
	Name    string       `json:"name"`
	Steps   int          `json:"steps"`
	Regions []RegionDecl `json:"regions"`
	Loops   []LoopDecl   `json:"loops"`
	// Sequence lists loop names executed per timestep, in order. Empty
	// means every loop once per step, in declaration order.
	Sequence []string `json:"sequence"`
}

// RegionDecl declares a data region.
type RegionDecl struct {
	Name string `json:"name"`
	// SizeMB fixes the region size; 0 auto-sizes from stream usage.
	SizeMB int64 `json:"sizeMB"`
	// Placement: "blocked" (default), "interleaved", or "node:<n>".
	Placement string `json:"placement"`
}

// LoopDecl declares one taskloop.
type LoopDecl struct {
	Name          string         `json:"name"`
	Iters         int            `json:"iters"`
	Tasks         int            `json:"tasks"`
	ComputeMicros float64        `json:"computeMicros"`
	Imbalance     *ImbalanceDecl `json:"imbalance"`
	Streams       []AccessDecl   `json:"streams"`
	Spans         []AccessDecl   `json:"spans"`
}

// ImbalanceDecl is a block-structured imbalance profile.
type ImbalanceDecl struct {
	Blocks    int     `json:"blocks"`
	Amplitude float64 `json:"amplitude"`
}

// AccessDecl references a region with a per-iteration volume.
type AccessDecl struct {
	Region    string `json:"region"`
	KBPerIter int64  `json:"kbPerIter"`
	// Pattern applies to spans: "gather" (default) or "transpose".
	Pattern string `json:"pattern"`
}

// Parse reads and validates a document.
func Parse(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("looplang: %w", err)
	}
	if err := doc.Validate(0); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Validate checks everything Build needs short of allocating memory: the
// document's internal consistency, that every region gets a size, and that
// every "node:<n>" placement has 0 <= n, and n < nodes when nodes > 0 (the
// NUMA node count of the machine it will build on). A document that
// validates against the machine's node count builds without error.
func (d *Document) Validate(nodes int) error {
	if d.Name == "" {
		return fmt.Errorf("looplang: document needs a name")
	}
	if d.Steps <= 0 {
		return fmt.Errorf("looplang: steps must be positive, got %d", d.Steps)
	}
	if len(d.Loops) == 0 {
		return fmt.Errorf("looplang: no loops declared")
	}
	regions := map[string]bool{}
	for _, r := range d.Regions {
		if r.Name == "" {
			return fmt.Errorf("looplang: region without a name")
		}
		if regions[r.Name] {
			return fmt.Errorf("looplang: duplicate region %q", r.Name)
		}
		regions[r.Name] = true
		if r.SizeMB < 0 {
			return fmt.Errorf("looplang: region %q has negative size", r.Name)
		}
		switch p := r.Placement; {
		case p == "" || p == "blocked" || p == "interleaved":
		case strings.HasPrefix(p, "node:"):
			if n, err := strconv.Atoi(p[5:]); err != nil || n < 0 || (nodes > 0 && n >= nodes) {
				return fmt.Errorf("looplang: region %q placement %q is not a valid node", r.Name, p)
			}
		default:
			return fmt.Errorf("looplang: region %q has unknown placement %q", r.Name, r.Placement)
		}
	}
	streamed := map[string]bool{}
	loops := map[string]bool{}
	for _, l := range d.Loops {
		if l.Name == "" {
			return fmt.Errorf("looplang: loop without a name")
		}
		if loops[l.Name] {
			return fmt.Errorf("looplang: duplicate loop %q", l.Name)
		}
		loops[l.Name] = true
		if l.Iters <= 0 || l.Tasks <= 0 || l.Tasks > l.Iters {
			return fmt.Errorf("looplang: loop %q has bad iters/tasks %d/%d", l.Name, l.Iters, l.Tasks)
		}
		if l.ComputeMicros < 0 {
			return fmt.Errorf("looplang: loop %q has negative compute", l.Name)
		}
		if im := l.Imbalance; im != nil {
			if im.Blocks <= 0 || im.Amplitude < 0 || im.Amplitude >= 1 {
				return fmt.Errorf("looplang: loop %q has bad imbalance (blocks %d, amplitude %g)",
					l.Name, im.Blocks, im.Amplitude)
			}
		}
		for _, a := range append(append([]AccessDecl(nil), l.Streams...), l.Spans...) {
			if !regions[a.Region] {
				return fmt.Errorf("looplang: loop %q references unknown region %q", l.Name, a.Region)
			}
			if a.KBPerIter <= 0 {
				return fmt.Errorf("looplang: loop %q access to %q has non-positive volume",
					l.Name, a.Region)
			}
		}
		for _, a := range l.Spans {
			switch a.Pattern {
			case "", "gather", "transpose":
			default:
				return fmt.Errorf("looplang: loop %q span has unknown pattern %q", l.Name, a.Pattern)
			}
		}
		for _, a := range l.Streams {
			if a.Pattern != "" {
				return fmt.Errorf("looplang: loop %q stream must not set a pattern", l.Name)
			}
			streamed[a.Region] = true
		}
	}
	for _, s := range d.Sequence {
		if !loops[s] {
			return fmt.Errorf("looplang: sequence references unknown loop %q", s)
		}
	}
	// A region without sizeMB is auto-sized from its streams, so it needs
	// one; a span only reads a region's extent and cannot size it.
	sized := map[string]bool{}
	for _, r := range d.Regions {
		sized[r.Name] = r.SizeMB > 0 || streamed[r.Name]
	}
	for _, l := range d.Loops {
		for _, a := range l.Spans {
			if !sized[a.Region] {
				return fmt.Errorf("looplang: span region %q needs an explicit sizeMB", a.Region)
			}
		}
	}
	for _, r := range d.Regions {
		if !sized[r.Name] {
			return fmt.Errorf("looplang: region %q is never streamed and has no sizeMB", r.Name)
		}
	}
	return nil
}

// Build compiles the document into a Program on the given machine,
// allocating and placing its regions. It fails only where Validate
// against the machine's node count does, and then before allocating.
func (d *Document) Build(m *machine.Machine) (*taskrt.Program, error) {
	nodes := make([]int, m.Topology().NumNodes())
	if err := d.Validate(len(nodes)); err != nil {
		return nil, err
	}
	for i := range nodes {
		nodes[i] = i
	}
	// Auto-size regions from the largest stream that walks them.
	sizes := map[string]int64{}
	for _, r := range d.Regions {
		sizes[r.Name] = r.SizeMB << 20
	}
	for _, l := range d.Loops {
		for _, a := range l.Streams {
			if need := int64(l.Iters) * (a.KBPerIter << 10); need > sizes[a.Region] {
				sizes[a.Region] = need
			}
		}
	}
	regions := map[string]*memsys.Region{}
	for _, rd := range d.Regions {
		r := m.Memory().NewRegion(rd.Name, sizes[rd.Name])
		switch p := rd.Placement; {
		case p == "" || p == "blocked":
			r.PlaceBlocked(nodes)
		case p == "interleaved":
			r.PlaceInterleaved(nodes)
		default: // "node:<n>", validated above
			n, _ := strconv.Atoi(p[5:])
			r.PlaceOnNode(n)
		}
		regions[rd.Name] = r
	}

	prog := &taskrt.Program{Name: d.Name}
	byName := map[string]int{}
	for i, l := range d.Loops {
		prog.Loops = append(prog.Loops, l.compile(i+1, regions))
		byName[l.Name] = i
	}
	perStep := d.Sequence
	if len(perStep) == 0 {
		for _, l := range d.Loops {
			perStep = append(perStep, l.Name)
		}
	}
	for s := 0; s < d.Steps; s++ {
		for _, name := range perStep {
			prog.Sequence = append(prog.Sequence, byName[name])
		}
	}
	return prog, nil
}

// compile turns one loop declaration into a LoopSpec.
func (l *LoopDecl) compile(id int, regions map[string]*memsys.Region) *taskrt.LoopSpec {
	type streamAcc struct {
		r   *memsys.Region
		bpi int64
	}
	type spanAcc struct {
		r   *memsys.Region
		bpi int64
		pat memsys.Pattern
	}
	var streams []streamAcc
	for _, a := range l.Streams {
		streams = append(streams, streamAcc{regions[a.Region], a.KBPerIter << 10})
	}
	var spans []spanAcc
	for _, a := range l.Spans {
		pat := memsys.Gather
		if a.Pattern == "transpose" {
			pat = memsys.Transpose
		}
		spans = append(spans, spanAcc{regions[a.Region], a.KBPerIter << 10, pat})
	}
	compute := l.ComputeMicros * 1e-6
	iters := l.Iters
	weight := func(int) float64 { return 1 }
	if im := l.Imbalance; im != nil {
		blocks, amp := im.Blocks, im.Amplitude
		weight = func(i int) float64 {
			return blockHashWeight(i*blocks/iters, amp)
		}
	}

	var hint func(lo, hi int) int
	if len(streams) > 0 {
		s0 := streams[0]
		hint = func(lo, hi int) int {
			mid := (int64(lo) + int64(hi)) / 2 * s0.bpi
			if mid >= s0.r.Size() {
				mid = s0.r.Size() - 1
			}
			return s0.r.HomeNode(mid)
		}
	}

	return &taskrt.LoopSpec{
		ID:    id,
		Name:  l.Name,
		Iters: iters,
		Tasks: l.Tasks,
		Hint:  hint,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			var sec float64
			for i := lo; i < hi; i++ {
				sec += compute * weight(i)
			}
			var acc []memsys.Access
			for _, s := range streams {
				acc = append(acc, memsys.Access{
					Region: s.r, Offset: int64(lo) * s.bpi,
					Bytes: int64(hi-lo) * s.bpi, Pattern: memsys.Stream,
				})
			}
			for _, s := range spans {
				acc = append(acc, memsys.Access{
					Region: s.r, Offset: 0, Bytes: int64(hi-lo) * s.bpi,
					Span: s.r.Size(), Pattern: s.pat,
				})
			}
			return sec, acc
		},
	}
}

// blockHashWeight mirrors the workload package's deterministic block
// imbalance: weight in [1-amp, 1+amp] per block index.
func blockHashWeight(block int, amp float64) float64 {
	z := uint64(block)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return 1 + amp*(2*u-1)
}
