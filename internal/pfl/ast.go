// Package pfl implements the parallel Fortran-like mini-language used as
// the compiler's input. PFL captures exactly the program shape the paper's
// analysis operates on: a sequence of serial sections and DOALL loops
// (epochs), procedures with array reference parameters, and affine (or
// deliberately non-affine) array subscripts.
//
// A program consists of global declarations (integer parameters, float
// scalars, float arrays) and procedures. Execution starts at proc main.
// DOALL iterations are assumed independent (the parallelizer's output);
// cross-iteration communication must go through critical sections.
package pfl

import "fmt"

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a parsed PFL compilation unit.
type Program struct {
	Name    string
	Params  []*ParamDecl
	Scalars []*ScalarDecl
	Arrays  []*ArrayDecl
	Procs   []*Proc
}

// Proc looks up a procedure by name, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Array looks up a global array declaration by name, or nil.
func (p *Program) Array(name string) *ArrayDecl {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Param looks up a parameter declaration by name, or nil.
func (p *Program) Param(name string) *ParamDecl {
	for _, d := range p.Params {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// ParamDecl is a compile-time integer constant: `param n = 64`.
// The initializer may be any constant expression over previously declared
// parameters: `param half = n / 2`.
type ParamDecl struct {
	Pos   Pos
	Name  string
	Value Expr
}

// ScalarDecl is a global shared float scalar: `scalar eps = 0.5`.
type ScalarDecl struct {
	Pos  Pos
	Name string
	Init float64
}

// ArrayDecl is a global shared float array: `array A[n][n]`.
type ArrayDecl struct {
	Pos  Pos
	Name string
	Dims []Expr // constant or parameter expressions
}

// Proc is a procedure. Formals are arrays passed by reference; scalars and
// parameters are global, so procedures only abstract over array identity
// (which is what makes interprocedural section translation non-trivial).
type Proc struct {
	Pos     Pos
	Name    string
	Formals []*Formal
	Body    *Block
}

// Formal is an array reference parameter with a declared rank.
type Formal struct {
	Pos  Pos
	Name string
	Rank int
}

// Block is a statement sequence.
type Block struct {
	Stmts []Stmt
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Position() Pos
	stmtNode()
}

// AssignStmt assigns RHS to an array element or scalar.
type AssignStmt struct {
	Pos Pos
	LHS Expr // *IndexRef or *VarRef
	RHS Expr
}

// ForStmt is a serial loop: `for i = lo to hi [step s] { ... }`.
type ForStmt struct {
	Pos    Pos
	Var    string
	Lo, Hi Expr
	Step   Expr // nil means 1
	Body   *Block
}

// DoallStmt is a parallel loop whose iterations form the tasks of one
// epoch: `doall i = lo to hi { ... }`.
type DoallStmt struct {
	Pos    Pos
	Var    string
	Lo, Hi Expr
	Body   *Block
	// ID is assigned by the checker: a dense index over all DOALLs in the
	// program, used by later phases to attach analysis results.
	ID int
}

// IfStmt is a conditional.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// CallStmt invokes a procedure with array arguments (by reference).
type CallStmt struct {
	Pos  Pos
	Name string
	Args []string // array names visible in the caller
}

// CriticalStmt is a critical section: its body executes atomically with
// respect to all other critical sections (one global lock, as in the
// paper's treatment of lock-protected data).
type CriticalStmt struct {
	Pos  Pos
	Body *Block
}

// OrderedStmt is a DOACROSS-style ordered section inside a doall: the
// bodies execute in ascending iteration order, so an iteration may
// legally consume data produced by earlier iterations' ordered sections
// within the same epoch. Coherence-wise its references need the same
// treatment as critical-section data (same-epoch cross-task flow).
type OrderedStmt struct {
	Pos  Pos
	Body *Block
}

func (s *AssignStmt) Position() Pos   { return s.Pos }
func (s *ForStmt) Position() Pos      { return s.Pos }
func (s *DoallStmt) Position() Pos    { return s.Pos }
func (s *IfStmt) Position() Pos       { return s.Pos }
func (s *CallStmt) Position() Pos     { return s.Pos }
func (s *CriticalStmt) Position() Pos { return s.Pos }
func (s *OrderedStmt) Position() Pos  { return s.Pos }

func (*AssignStmt) stmtNode()   {}
func (*ForStmt) stmtNode()      {}
func (*DoallStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*CallStmt) stmtNode()     {}
func (*CriticalStmt) stmtNode() {}
func (*OrderedStmt) stmtNode()  {}

// Expr is implemented by all expression nodes.
type Expr interface {
	Position() Pos
	exprNode()
}

// NumLit is a numeric literal. Val is its value rounded to float64. An
// integer literal (IsInt: no '.' and no exponent) also carries its exact
// value in Int, which Val loses past 2^53, unless it is 2^63 or more
// (TooBig).
type NumLit struct {
	Pos    Pos
	Val    float64
	IsInt  bool
	Int    int64
	TooBig bool
}

// IntValue returns an integer literal's exact value. ok is false for a
// floating-point literal and for an integer literal too large for int64.
func (e *NumLit) IntValue() (v int64, ok bool) {
	return e.Int, e.IsInt && !e.TooBig
}

// VarRef names a scalar, parameter, or loop index.
// RefID is assigned by the checker for references that resolve to global
// scalars (which are shared memory); it is -1 for parameters and loop
// indices (register values with no memory identity).
type VarRef struct {
	Pos   Pos
	Name  string
	RefID int
}

// IndexRef is an array element reference A[e1][e2]...
// RefID is assigned by the checker: a dense program-wide identity used by
// the marking phase to attach per-reference coherence annotations.
type IndexRef struct {
	Pos   Pos
	Name  string
	Subs  []Expr
	RefID int
}

// BinExpr is a binary operation. Op is one of
// + - * / % < <= > >= == != && ||.
type BinExpr struct {
	Pos  Pos
	Op   string
	X, Y Expr
}

// UnExpr is a unary operation: - or !.
type UnExpr struct {
	Pos Pos
	Op  string
	X   Expr
}

// CallExpr is a builtin intrinsic application: abs, min, max, sqrt, exp,
// log, sin, cos, floor. Intrinsics are pure; their results are non-affine
// for subscript analysis.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

func (e *NumLit) Position() Pos   { return e.Pos }
func (e *VarRef) Position() Pos   { return e.Pos }
func (e *IndexRef) Position() Pos { return e.Pos }
func (e *BinExpr) Position() Pos  { return e.Pos }
func (e *UnExpr) Position() Pos   { return e.Pos }
func (e *CallExpr) Position() Pos { return e.Pos }

func (*NumLit) exprNode()   {}
func (*VarRef) exprNode()   {}
func (*IndexRef) exprNode() {}
func (*BinExpr) exprNode()  {}
func (*UnExpr) exprNode()   {}
func (*CallExpr) exprNode() {}
