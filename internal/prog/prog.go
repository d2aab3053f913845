// Package prog builds the executable program model from a checked PFL
// AST: evaluated parameters, array shapes, and a word-addressed memory
// layout shared by the compiler analyses and the execution-driven
// simulator.
//
// One PFL array element (a float64) occupies one machine word. Arrays are
// laid out row-major and aligned to a line boundary so that spatial
// locality and false sharing behave as they would in the paper's
// byte-addressable machine scaled to word granularity.
package prog

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/pfl"
	"repro/internal/symexpr"
)

// Word is a word address in the simulated shared memory.
type Word int64

// ArrayInfo describes one global array's shape and placement.
type ArrayInfo struct {
	Name    string
	Dims    []int64 // evaluated extents
	Strides []int64 // row-major word strides: Strides[d] = product of Dims[d+1:]
	Base    Word    // word address of element [0][0]...
	Size    int64   // total words
	Var     int     // position in the program's Vars
}

// SubscriptErr is the canonical out-of-range error for subscript i in
// dimension d (shared by Address and the simulator's lowered address
// computation, so both report identically).
func (a *ArrayInfo) SubscriptErr(d int, i int64) error {
	return fmt.Errorf("prog: array %s: subscript %d out of range [0,%d) in dim %d",
		a.Name, i, a.Dims[d], d)
}

// ScalarInfo describes one global scalar's placement.
type ScalarInfo struct {
	Name string
	Addr Word
	Init float64
}

// Prog is the compiled program model: the checked AST plus evaluated
// parameters and the memory layout.
type Prog struct {
	AST    *pfl.Program
	Info   *pfl.Info
	Params map[string]int64

	Arrays  map[string]*ArrayInfo
	Scalars map[string]*ScalarInfo
	// MemWords is the total extent of the data segment in words.
	MemWords int64

	// Vars lists every global, scalars then arrays, in layout order:
	// ascending, non-overlapping extents. VarIndex maps a name to its
	// position in Vars.
	Vars     []Var
	VarIndex map[string]int
}

// Var is one global's extent in the data segment.
type Var struct {
	Name string
	Base Word
	Size int64 // words
}

// VarAt returns the position in Vars of the global holding addr, or -1
// for a word that belongs to none (line padding between arrays, or past
// the data segment).
func (p *Prog) VarAt(addr Word) int {
	lo, hi := 0, len(p.Vars) // the answer is the last Var with Base <= addr
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.Vars[m].Base <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if i := lo - 1; i >= 0 && addr < p.Vars[i].Base+Word(p.Vars[i].Size) {
		return i
	}
	return -1
}

// Build evaluates parameters and lays out globals. align is the line
// alignment in words (pass the machine's line size; 0 means no alignment).
// A layout larger than machine.MaxMemWords is an error.
func Build(info *pfl.Info, align int64) (*Prog, error) {
	return BuildPadded(info, align, false)
}

// BuildPadded is Build with optional scalar padding: padScalars gives
// every scalar its own aligned line, eliminating false sharing between
// scalars at the cost of memory.
func BuildPadded(info *pfl.Info, align int64, padScalars bool) (*Prog, error) {
	p := &Prog{
		AST:      info.Prog,
		Info:     info,
		Params:   make(map[string]int64),
		Arrays:   make(map[string]*ArrayInfo),
		Scalars:  make(map[string]*ScalarInfo),
		Vars:     make([]Var, 0, len(info.Prog.Scalars)+len(info.Prog.Arrays)),
		VarIndex: make(map[string]int, len(info.Prog.Scalars)+len(info.Prog.Arrays)),
	}
	for _, d := range info.Prog.Params {
		v, err := p.EvalParamExpr(d.Value)
		if err != nil {
			return nil, err
		}
		p.Params[d.Name] = v
	}
	if align <= 0 {
		align = 1
	}

	var next Word
	alignUp := func(w Word) Word {
		a := Word(align)
		return (w + a - 1) / a * a
	}

	// Scalars first: packed contiguously by default (they can false-share
	// a line, which is realistic), or one per line when padding.
	for _, d := range info.Prog.Scalars {
		if padScalars {
			next = alignUp(next)
		}
		p.Scalars[d.Name] = &ScalarInfo{Name: d.Name, Addr: next, Init: d.Init}
		p.addVar(d.Name, next, 1)
		next++
	}
	if padScalars && len(info.Prog.Scalars) > 0 {
		next = alignUp(next)
	}
	for _, d := range info.Prog.Arrays {
		next = alignUp(next)
		ai := &ArrayInfo{Name: d.Name, Base: next}
		size := int64(1)
		for _, dim := range d.Dims {
			v, err := p.EvalParamExpr(dim)
			if err != nil {
				return nil, err
			}
			if v <= 0 {
				return nil, fmt.Errorf("prog: array %s has non-positive dimension %d", d.Name, v)
			}
			// Bound the extent by the room left in the segment before
			// the product or the next offset can wrap.
			if v > (machine.MaxMemWords-int64(next))/size {
				return nil, fmt.Errorf("prog: array %s exceeds the supported maximum data segment of %d words",
					d.Name, machine.MaxMemWords)
			}
			ai.Dims = append(ai.Dims, v)
			size *= v
		}
		ai.Size = size
		ai.Strides = make([]int64, len(ai.Dims))
		stride := int64(1)
		for d := len(ai.Dims) - 1; d >= 0; d-- {
			ai.Strides[d] = stride
			stride *= ai.Dims[d]
		}
		p.Arrays[d.Name] = ai
		ai.Var = len(p.Vars)
		p.addVar(d.Name, ai.Base, size)
		next += Word(size)
	}
	if next > machine.MaxMemWords {
		return nil, fmt.Errorf("prog: data segment of %d words exceeds the supported maximum %d", next, machine.MaxMemWords)
	}
	p.MemWords = int64(next)
	return p, nil
}

func (p *Prog) addVar(name string, base Word, size int64) {
	p.VarIndex[name] = len(p.Vars)
	p.Vars = append(p.Vars, Var{Name: name, Base: base, Size: size})
}

// EvalParamExpr evaluates a compile-time integer expression over params.
// Integer literals past int64 and results that overflow it are errors at
// the offending position, never wrapped values.
func (p *Prog) EvalParamExpr(e pfl.Expr) (int64, error) {
	switch ex := e.(type) {
	case *pfl.NumLit:
		if !ex.IsInt {
			return 0, fmt.Errorf("prog: %s: expected integer constant", ex.Pos)
		}
		v, ok := ex.IntValue()
		if !ok {
			return 0, fmt.Errorf("prog: %s: integer constant %s overflows int64", ex.Pos, pfl.FormatExpr(ex))
		}
		return v, nil
	case *pfl.VarRef:
		if v, ok := p.Params[ex.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("prog: %s: %q is not a param", ex.Pos, ex.Name)
	case *pfl.UnExpr:
		v, err := p.EvalParamExpr(ex.X)
		if err != nil {
			return 0, err
		}
		if ex.Op != "-" {
			return 0, fmt.Errorf("prog: %s: invalid constant op %q", ex.Pos, ex.Op)
		}
		if v == math.MinInt64 {
			return 0, overflowErr(ex.Pos, "-")
		}
		return -v, nil
	case *pfl.BinExpr:
		x, err := p.EvalParamExpr(ex.X)
		if err != nil {
			return 0, err
		}
		y, err := p.EvalParamExpr(ex.Y)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case "+":
			if (y > 0 && x > math.MaxInt64-y) || (y < 0 && x < math.MinInt64-y) {
				return 0, overflowErr(ex.Pos, ex.Op)
			}
			return x + y, nil
		case "-":
			if (y < 0 && x > math.MaxInt64+y) || (y > 0 && x < math.MinInt64+y) {
				return 0, overflowErr(ex.Pos, ex.Op)
			}
			return x - y, nil
		case "*":
			if x != 0 && ((x*y)/x != y || (x == -1 && y == math.MinInt64)) {
				return 0, overflowErr(ex.Pos, ex.Op)
			}
			return x * y, nil
		case "/":
			if y == 0 {
				return 0, fmt.Errorf("prog: %s: division by zero", ex.Pos)
			}
			if x == math.MinInt64 && y == -1 {
				return 0, overflowErr(ex.Pos, ex.Op)
			}
			return x / y, nil
		case "%":
			if y == 0 {
				return 0, fmt.Errorf("prog: %s: modulo by zero", ex.Pos)
			}
			return x % y, nil
		default:
			return 0, fmt.Errorf("prog: %s: invalid constant op %q", ex.Pos, ex.Op)
		}
	default:
		return 0, fmt.Errorf("prog: %s: invalid constant expression", e.Position())
	}
}

// overflowErr reports a constant operation whose result leaves int64.
func overflowErr(pos pfl.Pos, op string) error {
	return fmt.Errorf("prog: %s: constant %q overflows int64", pos, op)
}

// Address linearizes an element reference. Subscripts out of range are an
// error (the simulator treats them as a program bug).
func (p *Prog) Address(array *ArrayInfo, idx []int64) (Word, error) {
	if len(idx) != len(array.Dims) {
		return 0, fmt.Errorf("prog: array %s: got %d subscripts, want %d", array.Name, len(idx), len(array.Dims))
	}
	var lin int64
	for d, i := range idx {
		if i < 0 || i >= array.Dims[d] {
			return 0, array.SubscriptErr(d, i)
		}
		lin += i * array.Strides[d]
	}
	return array.Base + Word(lin), nil
}

// Affine converts an integer-valued PFL expression into a symbolic affine
// expression for analysis. Parameters are substituted with their constant
// values; loop variables stay symbolic; anything else (scalars, array
// elements, division, modulo) becomes Unknown. loopVars is the set of
// in-scope loop variables.
func (p *Prog) Affine(e pfl.Expr, loopVars map[string]bool) symexpr.Expr {
	switch ex := e.(type) {
	case *pfl.NumLit:
		if v, ok := ex.IntValue(); ok {
			return symexpr.Const(v)
		}
		return symexpr.Unknown()
	case *pfl.VarRef:
		if v, ok := p.Params[ex.Name]; ok {
			return symexpr.Const(v)
		}
		if loopVars[ex.Name] {
			return symexpr.Var(ex.Name)
		}
		return symexpr.Unknown() // runtime scalar value
	case *pfl.UnExpr:
		if ex.Op == "-" {
			return p.Affine(ex.X, loopVars).Neg()
		}
		return symexpr.Unknown()
	case *pfl.BinExpr:
		x := p.Affine(ex.X, loopVars)
		y := p.Affine(ex.Y, loopVars)
		switch ex.Op {
		case "+":
			return x.Add(y)
		case "-":
			return x.Sub(y)
		case "*":
			return x.Mul(y)
		case "/", "%":
			// Constant folding only; symbolic division is non-affine.
			if cx, ok := x.IsConst(); ok {
				if cy, ok2 := y.IsConst(); ok2 && cy != 0 {
					if ex.Op == "/" {
						return symexpr.Const(cx / cy)
					}
					return symexpr.Const(cx % cy)
				}
			}
			return symexpr.Unknown()
		default:
			return symexpr.Unknown()
		}
	case *pfl.CallExpr:
		return symexpr.Unknown() // intrinsic results are non-affine
	default:
		return symexpr.Unknown()
	}
}

// ArrayOrScalar resolves a name (within a procedure, so formals resolve to
// nothing here) to a global array or scalar. The simulator maintains its
// own formal->actual binding; this helper serves analyses over globals.
func (p *Prog) ArrayOrScalar(name string) (arr *ArrayInfo, sc *ScalarInfo) {
	return p.Arrays[name], p.Scalars[name]
}
