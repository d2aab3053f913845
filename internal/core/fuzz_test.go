package core

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/prog"
)

// FuzzCompile asserts the compiler never panics on PFL source: any input
// either fails to compile or yields a layout whose every variable lies
// inside a data segment within machine.MaxMemWords. It compiles only and
// never runs the program, so no input can make it hang in a simulation.
func FuzzCompile(f *testing.F) {
	f.Add(stencilSrc)
	f.Add(overflowSrc)
	f.Add(strings.Replace(overflowSrc, "4294967296", "3037000500", 1))
	f.Add("program p\nscalar s\nproc main() { s = 1.0 }")
	for _, n := range []int{8, 1 << 31} {
		k, err := bench.Get("ocean", bench.Params{N: n, Steps: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(k.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src, DefaultCompileOptions())
		if err != nil {
			return
		}
		p := c.Prog
		if p.MemWords < 0 || p.MemWords > machine.MaxMemWords {
			t.Fatalf("data segment of %d words, want 0 to %d", p.MemWords, machine.MaxMemWords)
		}
		for _, v := range p.Vars {
			if v.Base < 0 || v.Size < 0 || v.Base+prog.Word(v.Size) > prog.Word(p.MemWords) {
				t.Fatalf("%s at [%d, %d) lies outside the %d-word segment", v.Name, v.Base, int64(v.Base)+v.Size, p.MemWords)
			}
		}
	})
}
