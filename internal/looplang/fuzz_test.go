package looplang

import (
	"strings"
	"testing"
)

// FuzzParse drives the document parser with arbitrary bytes: it must never
// panic, and anything it accepts must validate and (given a machine)
// either build or fail cleanly.
func FuzzParse(f *testing.F) {
	f.Add(goodDoc)
	f.Add(`{}`)
	f.Add(`{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`)
	f.Add(`not json at all`)
	f.Add(`{"name":"x","steps":-1}`)
	f.Fuzz(func(t *testing.T, data string) {
		doc, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted documents must be internally consistent.
		if err := doc.Validate(0); err != nil {
			t.Fatalf("parsed document fails validation: %v", err)
		}
		// Bound resource usage under -fuzz: skip absurd declarations.
		if doc.Steps > 1000 {
			return
		}
		for _, r := range doc.Regions {
			if r.SizeMB > 4096 {
				return
			}
		}
		for _, l := range doc.Loops {
			if l.Iters > 1<<20 || l.ComputeMicros > 1e9 {
				return
			}
			for _, a := range append(append([]AccessDecl(nil), l.Streams...), l.Spans...) {
				if a.KBPerIter > 1<<20 {
					return
				}
			}
		}
		m := newM()
		prog, err := doc.Build(m)
		if err != nil {
			// Build may only fail where Validate against the machine does
			// (a node:<n> beyond its nodes).
			if doc.Validate(m.Topology().NumNodes()) == nil {
				t.Fatalf("Build failed on a document that validates: %v", err)
			}
			return
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("built program invalid: %v", err)
		}
	})
}
