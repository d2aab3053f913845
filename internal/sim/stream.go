// The affine reference-stream fast path.
//
// Almost all simulated traffic comes from innermost serial loops whose
// bodies are straight-line assignments over affine array references —
// unit- or constant-stride streams. The scalar path pays, per reference,
// a closure call, an addrFn evaluation, and a full set-associative
// cache.Lookup. This file recognizes such loops at lower time and
// compiles them to stream ops: per-reference (base, stride, count,
// kind, mark) descriptors plus a postfix program for each assignment,
// executed by a tight driver that walks every stream through a
// per-scheme memsys cursor (see internal/memsys/stream.go) with no
// closure dispatch and a cached line pointer instead of a Lookup per
// word.
//
// Recognition preconditions (anything else falls back to the scalar
// closures, with the blocking reason recorded for -explain-fastpath):
//
//   - the body is straight-line assignments: no nested loops,
//     conditionals, critical/ordered sections, or calls;
//   - every subscript is affine in the loop variable: built from the
//     loop variable, enclosing loop variables, parameters, and integer
//     literals with + - * and unary minus, no product of two
//     loop-variable-dependent terms, and — the classic blocker — no
//     memory reads (a subscript reading a scalar or array is a dynamic
//     subscript);
//   - right-hand sides use only arithmetic, comparisons, and intrinsics
//     over those same building blocks plus memory reads; && and || are
//     rejected because their short-circuit evaluation makes the cycle
//     charge data-dependent;
//   - reference marks (Time-Read windows, bypass) are static per
//     reference, hence loop-invariant by construction.
//
// Equivalence with the scalar path: the postfix programs evaluate the
// same IEEE operations in the same order as the scalar closures (no
// constant folding is applied, and the scalar lowering's folding uses
// the identical operations, so values agree bit-for-bit); cycle charges
// per iteration are a static sum bulk-charged per loop entry, which is
// observably identical because procWork is only read at epoch ends (and
// between DOALL iterations, never inside a body); memory effects go
// through the scheme cursors, which inline the scalar hit path verbatim
// and delegate everything else to the scheme's own Read/Write. Affine
// coefficients are recovered by sampling the charge-free float
// evaluator of the subscript tree (the same arithmetic the scalar path
// runs) at the first, second, and last iteration, so even
// rounding-degenerate subscripts reproduce the scalar addresses; an
// entry-time guard verifies the sampled endpoints agree with the affine
// model and lie in bounds, magnitudes stay within exact-float64-integer
// range, and falls back to the scalar iteration otherwise — including
// for subscript range violations, which then fail with the exact scalar
// diagnostic.

package sim

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/memsys"
	"repro/internal/pfl"
	"repro/internal/prog"
)

// StreamDiag is one lower-time fast-path recognition decision, surfaced
// by tpisim -explain-fastpath so kernel authors can see why a loop did
// (or did not) engage the fast path.
type StreamDiag struct {
	Proc string
	Pos  pfl.Pos
	Var  string // loop variable
	OK   bool
	// Reads/Writes count the loop's streams (OK only).
	Reads, Writes int
	// Reason/ReasonPos describe the blocking construct (non-OK only).
	Reason    string
	ReasonPos pfl.Pos
	// Outer marks a loop that directly contains another loop: only
	// innermost loops can stream, so a non-OK Outer diag is structural,
	// not a coverage gap (-require-fastpath ignores it; the inner loop
	// has its own diag).
	Outer bool
}

// streamBlock is a recognition failure: the construct at pos blocks
// streaming for the enclosing loop.
type streamBlock struct {
	pos    pfl.Pos
	reason string
	outer  bool // the blocker is a nested loop (the loop is not innermost)
}

// subFn evaluates one subscript dimension at loop value j, charge-free,
// with the exact float arithmetic of the scalar closure.
type subFn func(t *task, j int64) float64

// streamRef is one reference stream: a scalar (stride 0) or an affine
// array reference walked by the driver.
type streamRef struct {
	src    varRef
	scalar bool
	kind   memsys.ReadKind
	window int
	ref    int32
	subs   []subFn // per-dimension evaluators (arrays only)
}

// Postfix opcodes for stream statement bodies.
const (
	opConst   uint8 = iota
	opSlot          // enclosing loop variable (frame slot a)
	opLoopVar       // the stream loop's own variable
	opLoad          // read stream a
	opNeg
	opNot
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
	opAbs
	opSqrt
	opExp
	opLog
	opSin
	opCos
	opFloor
	opMin
	opMax
)

// sop is one postfix operation.
type sop struct {
	op  uint8
	a   int32   // slot index (opSlot) or read-stream index (opLoad)
	val float64 // opConst
	pos pfl.Pos // ops that can fail (div, mod, sqrt, log)
}

// streamStmt is one assignment's RHS as a postfix program; its write
// stream is writes[i] for stmts[i].
type streamStmt struct {
	ops []sop
}

// streamLoop is the lowered form of a streamable innermost loop.
type streamLoop struct {
	varSlot     int
	reads       []streamRef
	writes      []streamRef // one per statement, in statement order
	stmts       []streamStmt
	perIterCost int64 // static cycles per iteration (loop bookkeeping + ops)
	maxStack    int
	body        []stmtFn // the exact scalar lowering, for fallbacks
	diag        int      // index into Program.streamDiags (for fallback accounting)
}

// runScalarIters is the classic per-iteration execution over already
// evaluated bounds: the scalar loop closure's body, shared with the
// stream fallbacks so bounds never evaluate twice.
func runScalarIters(t *task, slot int, body []stmtFn, lo, hi, s int64) {
	for v := lo; (s > 0 && v <= hi) || (s < 0 && v >= hi); v += s {
		t.slots[slot] = v
		t.charge(2)
		for _, b := range body {
			b(t)
		}
	}
}

// tryStream recognizes a streamable loop over its already-lowered body.
func (pl *procLowerer) tryStream(st *pfl.ForStmt, slot int, body []stmtFn) (*streamLoop, *streamBlock) {
	sl := &streamLoop{varSlot: slot, body: body, perIterCost: 2}
	if len(st.Body.Stmts) == 0 {
		return nil, &streamBlock{pos: st.Pos, reason: "empty loop body"}
	}
	for _, s := range st.Body.Stmts {
		as, ok := s.(*pfl.AssignStmt)
		if !ok {
			_, isFor := s.(*pfl.ForStmt)
			return nil, &streamBlock{pos: s.Position(), reason: "body contains a " + streamStmtName(s), outer: isFor}
		}
		var ops []sop
		depth, maxDepth := 0, 0
		rhsCost, blk := pl.streamExpr(as.RHS, slot, sl, &ops, &depth, &maxDepth)
		if blk != nil {
			return nil, blk
		}
		var wref streamRef
		var lhsCost int64
		switch lhs := as.LHS.(type) {
		case *pfl.VarRef:
			// The scalar lowering of this statement succeeded, so the
			// name is a global scalar.
			sv, _ := pl.l.scalar(lhs.Name)
			wref = streamRef{src: global(sv), scalar: true, ref: int32(lhs.RefID)}
		case *pfl.IndexRef:
			wref, lhsCost, blk = pl.streamIndex(lhs, slot)
			if blk != nil {
				return nil, blk
			}
		default:
			return nil, &streamBlock{pos: as.Pos, reason: fmt.Sprintf("assignment target %T", as.LHS)}
		}
		// Per iteration the scalar path charges rhs ops + 1 (assign) +
		// lhs subscript ops + 1 (write issue); stalls stay dynamic.
		sl.perIterCost += rhsCost + 1 + lhsCost + 1
		sl.writes = append(sl.writes, wref)
		sl.stmts = append(sl.stmts, streamStmt{ops: ops})
		if maxDepth > sl.maxStack {
			sl.maxStack = maxDepth
		}
	}
	return sl, nil
}

// streamStmtName names a blocking statement kind for diagnostics.
func streamStmtName(s pfl.Stmt) string {
	switch s.(type) {
	case *pfl.ForStmt:
		return "nested loop (only innermost loops stream)"
	case *pfl.IfStmt:
		return "conditional"
	case *pfl.CriticalStmt:
		return "critical section"
	case *pfl.OrderedStmt:
		return "ordered section"
	default:
		return fmt.Sprintf("%T", s)
	}
}

// streamIndex analyzes an array reference's subscripts (read or write
// side). kind/window/ref are filled by the caller for reads.
func (pl *procLowerer) streamIndex(e *pfl.IndexRef, jslot int) (streamRef, int64, *streamBlock) {
	src, err := pl.arraySrc(e.Name)
	if err != nil {
		return streamRef{}, 0, &streamBlock{pos: e.Pos, reason: err.Error()}
	}
	r := streamRef{src: src, ref: int32(e.RefID)}
	var cost int64
	for _, sub := range e.Subs {
		fn, c, _, blk := pl.subLin(sub, jslot)
		if blk != nil {
			return streamRef{}, 0, blk
		}
		cost += c
		r.subs = append(r.subs, fn)
	}
	return r, cost, nil
}

// subLin analyzes one subscript dimension: affine in the loop variable,
// no memory reads, no dynamically-charged or non-affine operators. It
// returns a charge-free evaluator mirroring the scalar float arithmetic,
// the static cycle cost the scalar path charges for the expression, and
// whether the subtree depends on the loop variable.
func (pl *procLowerer) subLin(e pfl.Expr, jslot int) (subFn, int64, bool, *streamBlock) {
	switch ex := e.(type) {
	case *pfl.NumLit:
		v := ex.Val
		if v != math.Trunc(v) || math.Abs(v) > 1<<31 {
			return nil, 0, false, &streamBlock{pos: ex.Pos,
				reason: fmt.Sprintf("non-integral or oversized constant %v in subscript", v)}
		}
		return func(*task, int64) float64 { return v }, 0, false, nil

	case *pfl.VarRef:
		if slot, ok := pl.slots[ex.Name]; ok {
			if slot == jslot {
				return func(_ *task, j int64) float64 { return float64(j) }, 0, true, nil
			}
			return func(t *task, _ int64) float64 { return float64(t.slots[slot]) }, 0, false, nil
		}
		if pv, ok := pl.l.p.Params[ex.Name]; ok {
			v := float64(pv)
			if math.Abs(v) > 1<<31 {
				return nil, 0, false, &streamBlock{pos: ex.Pos,
					reason: fmt.Sprintf("oversized parameter %s=%d in subscript", ex.Name, pv)}
			}
			return func(*task, int64) float64 { return v }, 0, false, nil
		}
		return nil, 0, false, &streamBlock{pos: ex.Pos,
			reason: fmt.Sprintf("dynamic subscript: reads scalar %q", ex.Name)}

	case *pfl.IndexRef:
		return nil, 0, false, &streamBlock{pos: ex.Pos,
			reason: fmt.Sprintf("dynamic subscript: reads array %q", ex.Name)}

	case *pfl.UnExpr:
		if ex.Op != "-" {
			return nil, 0, false, &streamBlock{pos: ex.Pos,
				reason: fmt.Sprintf("non-affine operator %q in subscript", ex.Op)}
		}
		xf, c, hj, blk := pl.subLin(ex.X, jslot)
		if blk != nil {
			return nil, 0, false, blk
		}
		return func(t *task, j int64) float64 { return -xf(t, j) }, c + 1, hj, nil

	case *pfl.BinExpr:
		switch ex.Op {
		case "+", "-", "*":
		default:
			return nil, 0, false, &streamBlock{pos: ex.Pos,
				reason: fmt.Sprintf("non-affine operator %q in subscript", ex.Op)}
		}
		xf, cx, hx, blk := pl.subLin(ex.X, jslot)
		if blk != nil {
			return nil, 0, false, blk
		}
		yf, cy, hy, blk := pl.subLin(ex.Y, jslot)
		if blk != nil {
			return nil, 0, false, blk
		}
		var fn subFn
		switch ex.Op {
		case "+":
			fn = func(t *task, j int64) float64 { return xf(t, j) + yf(t, j) }
		case "-":
			fn = func(t *task, j int64) float64 { return xf(t, j) - yf(t, j) }
		case "*":
			if hx && hy {
				return nil, 0, false, &streamBlock{pos: ex.Pos,
					reason: "product of two loop-variable-dependent terms in subscript"}
			}
			fn = func(t *task, j int64) float64 { return xf(t, j) * yf(t, j) }
		}
		return fn, cx + cy + 1, hx || hy, nil

	case *pfl.CallExpr:
		return nil, 0, false, &streamBlock{pos: ex.Pos,
			reason: fmt.Sprintf("intrinsic %q in subscript", ex.Name)}

	default:
		return nil, 0, false, &streamBlock{pos: e.Position(),
			reason: fmt.Sprintf("unsupported expression %T in subscript", e)}
	}
}

// streamExpr compiles an RHS expression to postfix, registering read
// streams as it encounters them (in scalar evaluation order). It
// returns the static cycle cost of the expression.
func (pl *procLowerer) streamExpr(e pfl.Expr, jslot int, sl *streamLoop, ops *[]sop, depth, maxDepth *int) (int64, *streamBlock) {
	push := func(op sop) {
		*ops = append(*ops, op)
		*depth++
		if *depth > *maxDepth {
			*maxDepth = *depth
		}
	}
	switch ex := e.(type) {
	case *pfl.NumLit:
		push(sop{op: opConst, val: ex.Val})
		return 0, nil

	case *pfl.VarRef:
		if slot, ok := pl.slots[ex.Name]; ok {
			if slot == jslot {
				push(sop{op: opLoopVar})
			} else {
				push(sop{op: opSlot, a: int32(slot)})
			}
			return 0, nil
		}
		if pv, ok := pl.l.p.Params[ex.Name]; ok {
			push(sop{op: opConst, val: float64(pv)})
			return 0, nil
		}
		if sv, ok := pl.l.scalar(ex.Name); ok {
			kind, window := pl.l.premark(ex.RefID)
			sl.reads = append(sl.reads, streamRef{
				src: global(sv), scalar: true, kind: kind, window: window, ref: int32(ex.RefID),
			})
			push(sop{op: opLoad, a: int32(len(sl.reads) - 1)})
			return 0, nil
		}
		return 0, &streamBlock{pos: ex.Pos, reason: fmt.Sprintf("unbound name %q", ex.Name)}

	case *pfl.IndexRef:
		r, cost, blk := pl.streamIndex(ex, jslot)
		if blk != nil {
			return 0, blk
		}
		r.kind, r.window = pl.l.premark(ex.RefID)
		sl.reads = append(sl.reads, r)
		push(sop{op: opLoad, a: int32(len(sl.reads) - 1)})
		return cost, nil

	case *pfl.UnExpr:
		cost, blk := pl.streamExpr(ex.X, jslot, sl, ops, depth, maxDepth)
		if blk != nil {
			return 0, blk
		}
		switch ex.Op {
		case "-":
			*ops = append(*ops, sop{op: opNeg})
		case "!":
			*ops = append(*ops, sop{op: opNot})
		default:
			return 0, &streamBlock{pos: ex.Pos, reason: fmt.Sprintf("unknown unary op %q", ex.Op)}
		}
		return cost + 1, nil

	case *pfl.BinExpr:
		var op uint8
		switch ex.Op {
		case "&&", "||":
			// Short-circuit evaluation skips the right operand's charges
			// (and any reads) data-dependently: not a static stream.
			return 0, &streamBlock{pos: ex.Pos,
				reason: fmt.Sprintf("short-circuit operator %q (data-dependent charge)", ex.Op)}
		case "+":
			op = opAdd
		case "-":
			op = opSub
		case "*":
			op = opMul
		case "/":
			op = opDiv
		case "%":
			op = opMod
		case "<":
			op = opLT
		case "<=":
			op = opLE
		case ">":
			op = opGT
		case ">=":
			op = opGE
		case "==":
			op = opEQ
		case "!=":
			op = opNE
		default:
			return 0, &streamBlock{pos: ex.Pos, reason: fmt.Sprintf("unknown op %q", ex.Op)}
		}
		cx, blk := pl.streamExpr(ex.X, jslot, sl, ops, depth, maxDepth)
		if blk != nil {
			return 0, blk
		}
		cy, blk := pl.streamExpr(ex.Y, jslot, sl, ops, depth, maxDepth)
		if blk != nil {
			return 0, blk
		}
		*ops = append(*ops, sop{op: op, pos: ex.Pos})
		*depth--
		return cx + cy + 1, nil

	case *pfl.CallExpr:
		var op uint8
		switch ex.Name {
		case "abs":
			op = opAbs
		case "sqrt":
			op = opSqrt
		case "exp":
			op = opExp
		case "log":
			op = opLog
		case "sin":
			op = opSin
		case "cos":
			op = opCos
		case "floor":
			op = opFloor
		case "min":
			op = opMin
		case "max":
			op = opMax
		default:
			return 0, &streamBlock{pos: ex.Pos, reason: fmt.Sprintf("unknown intrinsic %q", ex.Name)}
		}
		var cost int64
		for _, a := range ex.Args {
			c, blk := pl.streamExpr(a, jslot, sl, ops, depth, maxDepth)
			if blk != nil {
				return 0, blk
			}
			cost += c
		}
		*ops = append(*ops, sop{op: op, pos: ex.Pos})
		if len(ex.Args) == 2 {
			*depth--
		}
		return cost + 4, nil

	default:
		return 0, &streamBlock{pos: e.Position(), reason: fmt.Sprintf("unknown expression %T", e)}
	}
}

// streamScratch is a task's reusable stream-execution state: cursors,
// per-stream address walkers, and the postfix value stack. One task is
// touched by one goroutine at a time (hostpar gives each worker its own
// task), so the scratch is race-free.
type streamScratch struct {
	rc    []memsys.ReadCursor
	wc    []memsys.WriteCursor
	raddr []prog.Word
	rstep []int64
	waddr []prog.Word
	wstep []int64
	stack []float64
	// stall accumulates the loop's reference stalls; runStream charges
	// the sum once at loop exit (procWork is only read at epoch ends, so
	// batching the adds is unobservable, like the bulk perIterCost
	// charge).
	stall int64
}

// streamScratch sizes the task's scratch, growing it on first need.
func (t *task) streamScratch(nr, nw, stackN int) *streamScratch {
	sc := &t.ss
	if cap(sc.rc) < nr {
		sc.rc = make([]memsys.ReadCursor, nr)
		sc.raddr = make([]prog.Word, nr)
		sc.rstep = make([]int64, nr)
	}
	sc.rc, sc.raddr, sc.rstep = sc.rc[:nr], sc.raddr[:nr], sc.rstep[:nr]
	if cap(sc.wc) < nw {
		sc.wc = make([]memsys.WriteCursor, nw)
		sc.waddr = make([]prog.Word, nw)
		sc.wstep = make([]int64, nw)
	}
	sc.wc, sc.waddr, sc.wstep = sc.wc[:nw], sc.waddr[:nw], sc.wstep[:nw]
	if cap(sc.stack) < stackN {
		sc.stack = make([]float64, stackN)
	}
	sc.stack = sc.stack[:cap(sc.stack)]
	return sc
}

// scrub drops the cursors' references into the finished run's memory
// system and reports the bytes the scratch keeps.
func (sc *streamScratch) scrub() int64 {
	clear(sc.rc[:cap(sc.rc)])
	clear(sc.wc[:cap(sc.wc)])
	return int64(cap(sc.rc))*int64(unsafe.Sizeof(memsys.ReadCursor{})) +
		int64(cap(sc.wc))*int64(unsafe.Sizeof(memsys.WriteCursor{})) +
		int64(cap(sc.raddr)+cap(sc.rstep)+cap(sc.waddr)+cap(sc.wstep)+cap(sc.stack))*8
}

// streamRefInit resolves one stream's start address and word stride at
// loop entry: the variable's base from the bound layout, and the
// subscript evaluators sampled at the first, second, and last iteration.
// It reports false when the stream cannot be proven exact-and-in-bounds,
// in which case the caller falls back to scalar iteration (which
// reproduces any range fault exactly).
func streamRefInit(t *task, r *streamRef, lo, step, last, count int64) (prog.Word, int64, bool) {
	v := r.src.resolve(t.arrays)
	base := t.bases[v]
	if r.scalar {
		return base, 0, true
	}
	ai := t.r.lp.ir.shapes[v]
	if len(r.subs) != len(ai.Dims) {
		return 0, 0, false
	}
	var lin, strideW int64
	for d, f := range r.subs {
		v0f := f(t, lo)
		vLf, cf := v0f, 0.0
		if count > 1 {
			cf = f(t, lo+step) - v0f
			vLf = f(t, last)
		}
		// Exactness guards: sampled values must be integral, small enough
		// for exact float64 integer arithmetic, and consistent with the
		// affine model at the far endpoint; a linear function is monotone,
		// so in-bounds endpoints bound every iteration.
		if v0f != math.Trunc(v0f) || cf != math.Trunc(cf) ||
			math.Abs(v0f) > 1<<31 || math.Abs(vLf) > 1<<31 || math.Abs(cf) > 1<<31 {
			return 0, 0, false
		}
		v0, vL, c := int64(v0f), int64(vLf), int64(cf)
		if vL != v0+c*(count-1) {
			return 0, 0, false
		}
		minV, maxV := v0, vL
		if minV > maxV {
			minV, maxV = maxV, minV
		}
		if minV < 0 || maxV >= ai.Dims[d] {
			return 0, 0, false
		}
		lin += v0 * ai.Strides[d]
		strideW += c * ai.Strides[d]
	}
	return base + prog.Word(lin), strideW, true
}

// runStream executes a recognized loop through the scheme's stream
// cursors. Bounds and step are already evaluated (and charged) by the
// enclosing closure. It reports false — before any observable effect —
// when an entry-time guard fails and the scalar fallback must run.
func runStream(t *task, sl *streamLoop, lo, hi, step int64) bool {
	if step == math.MinInt64 {
		return false
	}
	var count int64
	if step > 0 {
		if lo > hi {
			return true // zero iterations: no charges, slot untouched
		}
		count = (hi-lo)/step + 1
	} else {
		if lo < hi {
			return true
		}
		count = (lo-hi)/(-step) + 1
	}
	last := lo + (count-1)*step

	sc := t.streamScratch(len(sl.reads), len(sl.writes), sl.maxStack)
	for i := range sl.reads {
		a0, stw, ok := streamRefInit(t, &sl.reads[i], lo, step, last, count)
		if !ok {
			return false
		}
		sc.raddr[i], sc.rstep[i] = a0, stw
	}
	for i := range sl.writes {
		a0, stw, ok := streamRefInit(t, &sl.writes[i], lo, step, last, count)
		if !ok {
			return false
		}
		sc.waddr[i], sc.wstep[i] = a0, stw
	}

	// All static cycles of the whole loop in one charge: procWork is
	// only read at epoch ends, never mid-body, so bulk-charging is
	// unobservable. Stalls are charged per reference below.
	t.charge(count * sl.perIterCost)
	ssys := t.r.sys
	for i := range sl.reads {
		ssys.InitReadCursor(&sc.rc[i], t.proc, sl.reads[i].kind, sl.reads[i].window, sc.raddr[i])
	}
	for i := range sl.writes {
		ssys.InitWriteCursor(&sc.wc[i], t.proc, sc.waddr[i])
	}

	sc.stall = 0
	j := lo
	for k := int64(0); k < count; k++ {
		for si := range sl.stmts {
			v := streamEval(t, sl, sc, sl.stmts[si].ops, j)
			wr := &sl.writes[si]
			addr := sc.waddr[si]
			stall, class := sc.wc[si].Write(addr, v)
			sc.stall += stall
			if t.rec != nil {
				t.rec.Write(t.proc, addr, wr.ref, false, class, stall)
			}
		}
		j += step
		for i := range sc.raddr {
			sc.raddr[i] += prog.Word(sc.rstep[i])
		}
		for i := range sc.waddr {
			sc.waddr[i] += prog.Word(sc.wstep[i])
		}
	}
	for i := range sc.rc {
		sc.rc[i].Flush()
	}
	for i := range sc.wc {
		sc.wc[i].Flush()
	}
	t.charge(sc.stall)
	t.slots[sl.varSlot] = last
	return true
}

// streamEval runs one postfix program at loop value j. Loads go through
// the read cursors; runtime faults (division by zero, sqrt/log domain)
// abort with the exact scalar diagnostics.
func streamEval(t *task, sl *streamLoop, sc *streamScratch, ops []sop, j int64) float64 {
	stack := sc.stack
	sp := 0
	for i := range ops {
		op := &ops[i]
		switch op.op {
		case opConst:
			stack[sp] = op.val
			sp++
		case opSlot:
			stack[sp] = float64(t.slots[op.a])
			sp++
		case opLoopVar:
			stack[sp] = float64(j)
			sp++
		case opLoad:
			cur := &sc.rc[op.a]
			addr := sc.raddr[op.a]
			v, stall, class := cur.Read(addr)
			sc.stall += stall
			if t.rec != nil {
				r := &sl.reads[op.a]
				t.rec.Read(t.proc, addr, r.ref, uint8(r.kind), class, stall)
			}
			stack[sp] = v
			sp++
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opNot:
			stack[sp-1] = boolVal(stack[sp-1] == 0)
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				fail("sim: %s: division by zero", op.pos)
			}
			stack[sp-1] /= stack[sp]
		case opMod:
			sp--
			ib := int64(stack[sp])
			if ib == 0 {
				fail("sim: %s: modulo by zero", op.pos)
			}
			m := int64(stack[sp-1]) % ib
			if m < 0 {
				m += absI64(ib)
			}
			stack[sp-1] = float64(m)
		case opLT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] < stack[sp])
		case opLE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] <= stack[sp])
		case opGT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] > stack[sp])
		case opGE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] >= stack[sp])
		case opEQ:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] == stack[sp])
		case opNE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] != stack[sp])
		case opAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		case opSqrt:
			v := stack[sp-1]
			if v < 0 {
				fail("sim: %s: sqrt of negative value %v", op.pos, v)
			}
			stack[sp-1] = math.Sqrt(v)
		case opExp:
			stack[sp-1] = math.Exp(stack[sp-1])
		case opLog:
			v := stack[sp-1]
			if v <= 0 {
				fail("sim: %s: log of non-positive value %v", op.pos, v)
			}
			stack[sp-1] = math.Log(v)
		case opSin:
			stack[sp-1] = math.Sin(stack[sp-1])
		case opCos:
			stack[sp-1] = math.Cos(stack[sp-1])
		case opFloor:
			stack[sp-1] = math.Floor(stack[sp-1])
		case opMin:
			sp--
			stack[sp-1] = math.Min(stack[sp-1], stack[sp])
		case opMax:
			sp--
			stack[sp-1] = math.Max(stack[sp-1], stack[sp])
		}
	}
	return stack[0]
}
