package core

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/pfl"
	"repro/internal/prog"
)

// FuzzCompile asserts the compiler never panics on PFL source: any input
// either fails to compile or yields a layout whose every variable lies
// inside a data segment within machine.MaxMemWords, and whose every
// parameter and array extent is its declaration's exact integer value.
// It compiles only and never runs the program, so no input can make it
// hang in a simulation.
func FuzzCompile(f *testing.F) {
	f.Add(stencilSrc)
	f.Add(overflowSrc)
	f.Add(strings.Replace(overflowSrc, "4294967296", "3037000500", 1))
	// Wrapped in int64 the extent is 5.
	f.Add("program p\nparam m = 4294967296 * 4294967296 + 5\narray A[m]\nproc main() { A[0] = 1 }")
	// MinInt64 / -1 wraps to MinInt64, so m came out as 2^62, not -2^62.
	f.Add("program p\nparam m = -4611686018427387904 * 2 / -1 / -2\narray A[4]\nproc main() { A[0] = m }")
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
		exact := map[string]*big.Int{}
		for _, d := range c.AST.Params {
			exact[d.Name] = exactConst(exact, d.Value)
			if v := exact[d.Name]; v == nil || !v.IsInt64() || v.Int64() != p.Params[d.Name] {
				t.Fatalf("param %s = %d, exactly %v", d.Name, p.Params[d.Name], v)
			}
		}
		for _, d := range c.AST.Arrays {
			for i, e := range d.Dims {
				if v := exactConst(exact, e); v == nil || !v.IsInt64() || v.Int64() != p.Arrays[d.Name].Dims[i] {
					t.Fatalf("array %s dim %d = %d, exactly %v", d.Name, i, p.Arrays[d.Name].Dims[i], v)
				}
			}
		}
	})
}

// exactConst evaluates a param expression in unbounded integers, with
// Go's truncated division; nil means it has no integer value.
func exactConst(params map[string]*big.Int, e pfl.Expr) *big.Int {
	switch ex := e.(type) {
	case *pfl.NumLit:
		v, acc := big.NewFloat(ex.Val).Int(nil)
		if !ex.IsInt || acc != big.Exact {
			return nil
		}
		return v
	case *pfl.VarRef:
		if v := params[ex.Name]; v != nil {
			return new(big.Int).Set(v)
		}
	case *pfl.UnExpr:
		if x := exactConst(params, ex.X); x != nil && ex.Op == "-" {
			return x.Neg(x)
		}
	case *pfl.BinExpr:
		x, y := exactConst(params, ex.X), exactConst(params, ex.Y)
		if x == nil || y == nil {
			return nil
		}
		switch ex.Op {
		case "+":
			return x.Add(x, y)
		case "-":
			return x.Sub(x, y)
		case "*":
			return x.Mul(x, y)
		case "/":
			if y.Sign() != 0 {
				return x.Quo(x, y)
			}
		case "%":
			if y.Sign() != 0 {
				return x.Rem(x, y)
			}
		}
	}
	return nil
}
