package prog

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pfl"
	"repro/internal/symexpr"
)

func build(t *testing.T, src string, align int64) *Prog {
	t.Helper()
	ast, err := pfl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := pfl.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(info, align)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const src = `
program p
param n = 8
param half = n / 2
scalar s1 = 1.5
scalar s2
array A[n][n]
array B[half]
proc main() {
  A[0][0] = s1 + s2
  B[0] = 0.0
}
`

func TestLayoutAlignment(t *testing.T) {
	p := build(t, src, 4)
	// scalars first: s1 at 0, s2 at 1; arrays line-aligned after.
	if p.Scalars["s1"].Addr != 0 || p.Scalars["s2"].Addr != 1 {
		t.Fatalf("scalar layout: %+v %+v", p.Scalars["s1"], p.Scalars["s2"])
	}
	a := p.Arrays["A"]
	if a.Base%4 != 0 {
		t.Fatalf("A base %d not line aligned", a.Base)
	}
	if a.Size != 64 || len(a.Dims) != 2 || a.Dims[0] != 8 {
		t.Fatalf("A shape: %+v", a)
	}
	b := p.Arrays["B"]
	if b.Base != a.Base+Word(a.Size) || b.Size != 4 {
		t.Fatalf("B placement: %+v (A ends at %d)", b, a.Base+Word(a.Size))
	}
	if p.MemWords < int64(b.Base)+b.Size {
		t.Fatalf("MemWords %d too small", p.MemWords)
	}
	if p.Scalars["s1"].Init != 1.5 {
		t.Fatal("scalar init lost")
	}
}

// TestVarAt: every word of a global maps to its position in Vars; the
// line padding before A and every word past the data segment map to -1.
func TestVarAt(t *testing.T) {
	p := build(t, src, 4)
	want := make(map[Word]string)
	for _, name := range []string{"s1", "s2"} {
		want[p.Scalars[name].Addr] = name
	}
	for _, name := range []string{"A", "B"} {
		a := p.Arrays[name]
		for w := a.Base; w < a.Base+Word(a.Size); w++ {
			want[w] = name
		}
	}
	if len(p.Vars) != 4 || len(p.VarIndex) != 4 {
		t.Fatalf("Vars %+v, VarIndex %v: want the 4 globals", p.Vars, p.VarIndex)
	}
	padding := 0
	for w := Word(-1); w < Word(p.MemWords)+8; w++ {
		i := p.VarAt(w)
		name, ok := want[w]
		switch {
		case !ok && i != -1:
			t.Fatalf("VarAt(%d) = %d (%s), want -1", w, i, p.Vars[i].Name)
		case ok && (i < 0 || p.Vars[i].Name != name || p.VarIndex[name] != i):
			t.Fatalf("VarAt(%d) = %d, want %s at VarIndex %d", w, i, name, p.VarIndex[name])
		case !ok && w >= 0 && w < Word(p.MemWords):
			padding++
		}
	}
	if padding != 2 {
		t.Fatalf("%d padding words inside the segment, want 2 (s1, s2, then A aligned to 4)", padding)
	}
}

func TestParamEvaluation(t *testing.T) {
	p := build(t, src, 4)
	if p.Params["n"] != 8 || p.Params["half"] != 4 {
		t.Fatalf("params: %v", p.Params)
	}
}

func TestAddress(t *testing.T) {
	p := build(t, src, 4)
	a := p.Arrays["A"]
	addr, err := p.Address(a, []int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if addr != a.Base+Word(2*8+3) {
		t.Fatalf("addr = %d", addr)
	}
	if _, err := p.Address(a, []int64{8, 0}); err == nil {
		t.Fatal("out-of-range subscript must error")
	}
	if _, err := p.Address(a, []int64{-1, 0}); err == nil {
		t.Fatal("negative subscript must error")
	}
	if _, err := p.Address(a, []int64{1}); err == nil {
		t.Fatal("rank mismatch must error")
	}
}

func TestNonPositiveDimension(t *testing.T) {
	ast, err := pfl.Parse(`
program p
param n = 0
array A[n]
proc main() { A[0] = 1 }
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := pfl.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(info, 4); err == nil || !strings.Contains(err.Error(), "non-positive") {
		t.Fatalf("want dimension error, got %v", err)
	}
}

func TestAffineConversion(t *testing.T) {
	p := build(t, src, 4)
	loopVars := map[string]bool{"i": true}
	parse := func(expr string) pfl.Expr {
		prog, err := pfl.Parse("program q\nscalar z\narray T[4]\nproc main() { z = " + expr + " }")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pfl.Check(prog); err == nil {
			// `i` is unbound in this synthetic program, so Check fails;
			// that is fine — we only need the AST.
			_ = err
		}
		return prog.Procs[0].Body.Stmts[0].(*pfl.AssignStmt).RHS
	}

	// param substituted with its value: n*2 + i - 1 -> 16 + i - 1
	e := p.Affine(parse("n * 2 + i - 1"), loopVars)
	want := symexpr.Var("i").Add(symexpr.Const(15))
	if !e.Equal(want) {
		t.Fatalf("affine = %v, want %v", e, want)
	}

	// scalar reference is a runtime value -> Unknown
	if !p.Affine(parse("s1 + 1"), loopVars).IsUnknown() {
		t.Fatal("scalar must be Unknown")
	}
	// array element in a subscript -> Unknown
	if !p.Affine(parse("T[0]"), loopVars).IsUnknown() {
		t.Fatal("array element must be Unknown")
	}
	// non-constant division -> Unknown; constant folds
	if !p.Affine(parse("i / 2"), loopVars).IsUnknown() {
		t.Fatal("i/2 must be Unknown")
	}
	if v, ok := p.Affine(parse("n / 2"), loopVars).IsConst(); !ok || v != 4 {
		t.Fatalf("n/2 = %v, %v", v, ok)
	}
	if v, ok := p.Affine(parse("n % 3"), loopVars).IsConst(); !ok || v != 2 {
		t.Fatalf("n%%3 = %v, %v", v, ok)
	}
	// i * i non-affine
	if !p.Affine(parse("i * i"), loopVars).IsUnknown() {
		t.Fatal("i*i must be Unknown")
	}
	// unary minus
	if !p.Affine(parse("-i"), loopVars).Equal(symexpr.Var("i").Neg()) {
		t.Fatal("-i")
	}
}

// TestParamExactLiterals: integer literals evaluate exactly wherever
// int64 holds them, not through float64, which rounds past 2^53.
func TestParamExactLiterals(t *testing.T) {
	for _, c := range []struct {
		expr string
		want int64
	}{
		{"9007199254740993", 1<<53 + 1},
		{"9007199254740993 - 9007199254740992", 1},
		{"9223372036854775807", math.MaxInt64},
		{"-9223372036854775807 - 1", math.MinInt64},
	} {
		p := build(t, "program p\narray A[4]\nparam m = "+c.expr+"\nproc main() { A[0] = m }", 4)
		if got := p.Params["m"]; got != c.want {
			t.Errorf("param m = %s: got %d, want %d", c.expr, got, c.want)
		}
	}
}

// TestParamOverflow: a constant expression whose value leaves int64 is
// an error at the operator or literal, never a wrapped extent.
func TestParamOverflow(t *testing.T) {
	for _, c := range []struct{ expr, want string }{
		{"4294967296 * 4294967296 + 5", `3:22: constant "*" overflows int64`},
		{"9223372036854775808", "3:11: integer constant 9223372036854775808 overflows int64"},
		{"-4611686018427387904 * 2 / -1", `3:36: constant "/" overflows int64`},
		{"-(-4611686018427387904 * 2)", `3:11: constant "-" overflows int64`},
		{"4611686018427387904 + 4611686018427387904", `3:31: constant "+" overflows int64`},
		{"-4611686018427387904 * 2 - 1", `3:36: constant "-" overflows int64`},
		{"-1 * (-4611686018427387904 * 2)", `3:14: constant "*" overflows int64`},
	} {
		ast, err := pfl.Parse("program p\narray A[4]\nparam m = " + c.expr + "\nproc main() { A[0] = m }")
		if err != nil {
			t.Fatal(err)
		}
		info, err := pfl.Check(ast)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(info, 4); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("param m = %s: error %v, want %q", c.expr, err, c.want)
		}
	}
	// Intermediate values at the edge of int64 still evaluate.
	p := build(t, "program p\nparam m = -4611686018427387904 * 2 + 4611686018427387904 + 4611686018427387904 + 4\narray A[m]\nproc main() { A[0] = 1 }", 4)
	if p.Params["m"] != 4 {
		t.Fatalf("m = %d, want 4", p.Params["m"])
	}
}
