package looplang

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

const goodDoc = `{
  "name": "myapp",
  "steps": 4,
  "regions": [
    {"name": "grid", "placement": "blocked"},
    {"name": "vec", "sizeMB": 32, "placement": "interleaved"},
    {"name": "local", "sizeMB": 8, "placement": "node:2"}
  ],
  "loops": [
    {
      "name": "sweep", "iters": 256, "tasks": 64, "computeMicros": 20,
      "imbalance": {"blocks": 16, "amplitude": 0.4},
      "streams": [{"region": "grid", "kbPerIter": 64}],
      "spans": [{"region": "vec", "kbPerIter": 16, "pattern": "gather"}]
    },
    {
      "name": "update", "iters": 256, "tasks": 64, "computeMicros": 10,
      "streams": [{"region": "grid", "kbPerIter": 64}],
      "spans": [{"region": "local", "kbPerIter": 4, "pattern": "transpose"}]
    }
  ],
  "sequence": ["sweep", "update", "sweep"]
}`

func newM() *machine.Machine {
	return machine.Build(machine.Spec{Topo: topology.SmallTest()}, 1)
}

func TestParseGoodDocument(t *testing.T) {
	doc, err := Parse(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "myapp" || len(doc.Loops) != 2 || len(doc.Regions) != 3 {
		t.Fatalf("parsed document wrong: %+v", doc)
	}
}

func TestBuildAndRun(t *testing.T) {
	doc, err := Parse(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 steps x 3 loop refs.
	if len(prog.Sequence) != 12 {
		t.Fatalf("sequence length %d, want 12", len(prog.Sequence))
	}
	rt := taskrt.New(m, &sched.Baseline{}, taskrt.DefaultCosts())
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 12*64 {
		t.Fatalf("executed %d tasks, want %d", res.TasksExecuted, 12*64)
	}
}

func TestAutoSizedRegion(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	if _, err := doc.Build(m); err != nil {
		t.Fatal(err)
	}
	// grid was auto-sized to iters * kbPerIter = 256 * 64 KiB = 16 MiB.
	var found bool
	for _, r := range m.Memory().Regions() {
		if r.Name() == "grid" {
			found = true
			if r.Size() != 256*64<<10 {
				t.Fatalf("grid size = %d, want %d", r.Size(), 256*64<<10)
			}
		}
	}
	if !found {
		t.Fatal("grid region not allocated")
	}
}

func TestDefaultSequenceIsAllLoops(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	doc.Sequence = nil
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sequence) != 4*2 {
		t.Fatalf("default sequence length %d, want 8", len(prog.Sequence))
	}
}

func TestImbalanceAffectsDemand(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	sweep := prog.Loops[0]
	a, _ := sweep.Demand(0, 16)
	b, _ := sweep.Demand(128, 144)
	if a == b {
		t.Fatal("imbalanced loop has uniform chunk compute")
	}
	update := prog.Loops[1]
	c, _ := update.Demand(0, 16)
	d, _ := update.Demand(128, 144)
	if c != d {
		t.Fatal("uniform loop has imbalanced compute")
	}
}

func TestHintFollowsStreamPlacement(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	sweep := prog.Loops[0]
	if sweep.Hint == nil {
		t.Fatal("stream loop missing affinity hint")
	}
	first := sweep.Hint(0, 16)
	last := sweep.Hint(240, 256)
	if first == last {
		t.Fatal("hints do not spread over nodes for a blocked region")
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","steps":1,"bogus":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no name":           `{"steps":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no steps":          `{"name":"x","loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no loops":          `{"name":"x","steps":1}`,
		"dup region":        `{"name":"x","steps":1,"regions":[{"name":"r"},{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"bad placement":     `{"name":"x","steps":1,"regions":[{"name":"r","placement":"diagonal"}],"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"dup loop":          `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2},{"name":"l","iters":4,"tasks":2}]}`,
		"tasks>iters":       `{"name":"x","steps":1,"loops":[{"name":"l","iters":2,"tasks":4}]}`,
		"unknown region":    `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`,
		"zero volume":       `{"name":"x","steps":1,"regions":[{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":0}]}]}`,
		"bad span pattern":  `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":1}],"loops":[{"name":"l","iters":4,"tasks":2,"spans":[{"region":"r","kbPerIter":1,"pattern":"zigzag"}]}]}`,
		"stream w/ pattern": `{"name":"x","steps":1,"regions":[{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1,"pattern":"gather"}]}]}`,
		"bad sequence":      `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2}],"sequence":["nope"]}`,
		"bad imbalance":     `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":0,"amplitude":0.5}}]}`,
		"amplitude >= 1":    `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":4,"amplitude":1.0}}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(doc)); err == nil {
				t.Errorf("accepted invalid document")
			}
		})
	}
}

// TestValidateRejectsUnbuildableDocuments: every way Build can fail is a
// Validate error, caught before any region is allocated. Machine-free
// failures are already Parse errors; an out-of-range node only fails once
// Validate knows the machine's node count, which is how loopconv rejects
// such a document before the harness runs a unit.
func TestValidateRejectsUnbuildableDocuments(t *testing.T) {
	const loop = `"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"used","kbPerIter":1}]%s}]}`
	cases := []struct {
		name, regions, spans, want string
		parses                     bool // machine-free check passes
	}{
		{"unsized span region", `{"name":"r"}`, `,"spans":[{"region":"r","kbPerIter":1}]`,
			`span region "r" needs an explicit sizeMB`, false},
		{"unused unsized region", `{"name":"r"}`, ``,
			`region "r" is never streamed and has no sizeMB`, false},
		{"node not a number", `{"name":"r","sizeMB":8,"placement":"node:x"}`, ``,
			`region "r" placement "node:x" is not a valid node`, false},
		{"negative node", `{"name":"r","sizeMB":8,"placement":"node:-1"}`, ``,
			`region "r" placement "node:-1" is not a valid node`, false},
		{"node out of range", `{"name":"r","sizeMB":8,"placement":"node:99"}`, ``,
			`region "r" placement "node:99" is not a valid node`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `{"name":"x","steps":1,"regions":[` + c.regions + `,{"name":"used"}],` +
				fmt.Sprintf(loop, c.spans)
			_, err := Parse(strings.NewReader(src))
			if (err == nil) != c.parses {
				t.Fatalf("Parse error = %v, want parse ok = %v", err, c.parses)
			}
			var d Document
			if err := json.Unmarshal([]byte(src), &d); err != nil {
				t.Fatal(err)
			}
			m := newM()
			if err := d.Validate(m.Topology().NumNodes()); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate error = %v, want %q", err, c.want)
			}
			if _, err := d.Build(m); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build error = %v, want %q", err, c.want)
			}
			if n := len(m.Memory().Regions()); n != 0 {
				t.Fatalf("failed Build allocated %d regions", n)
			}
		})
	}
}

func TestNodePlacement(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":8,"placement":"node:1"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	if _, err := d.Build(m); err != nil {
		t.Fatal(err)
	}
	r := m.Memory().Regions()[0]
	counts := r.NodeBytes(m.Topology().NumNodes())
	if counts[1] != r.Size() {
		t.Fatalf("node placement failed: %v", counts)
	}
}

func TestNodePlacementOutOfRange(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":8,"placement":"node:99"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(newM()); err == nil {
		t.Fatal("node:99 accepted on a 4-node machine")
	}
}
