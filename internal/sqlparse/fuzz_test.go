package sqlparse

import "testing"

// FuzzParse checks the render/re-parse fixpoint on arbitrary input: whenever
// Parse accepts a string, the rendering of its AST parses again and renders
// identically.
func FuzzParse(f *testing.F) {
	for _, src := range roundTripSrcs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := Parse(src)
		if err != nil {
			return
		}
		out := sel.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("rendering of %q does not re-parse: %q: %v", src, out, err)
		}
		if again.String() != out {
			t.Fatalf("not a fixpoint for %q:\n  %s\n  %s", src, out, again.String())
		}
	})
}
