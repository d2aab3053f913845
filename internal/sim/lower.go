// Lowering: the compile-once / execute-many half of the simulator.
//
// Walking the PFL AST per statement per iteration made the interpreter
// spend its cycles on name lookups (map[string]int64 frames), per-node
// interface dispatch, and a fresh []int64 per array reference. Lower
// translates each procedure body into a slot-addressed closure IR
// exactly once per analysed front end, whatever its memory layout:
//
//   - loop variables resolve to integer slots in a flat []int64 frame;
//   - prog.Params constants fold in place (keeping their operator cycle
//     charges, so timing is unchanged);
//   - scalar and array references resolve to the global's position in
//     prog.Prog.Vars, and array references precompute their row-major
//     strides, so subscript linearization allocates nothing;
//   - compiler marks (Time-Read windows, bypass) resolve per reference
//     at lower time instead of per executed load;
//   - statements and expressions become pre-bound func(*task) closures,
//     removing the per-node type switch and error-return ladder from
//     the inner loop.
//
// No address enters a closure. Where globals sit depends on the line
// size and scalar padding, and the analysis does not, so every layout
// of one front end shares one IR: a Program binds it to a layout's
// table of global base addresses, which the closures read per
// reference (the stream path once per loop entry).
//
// Static errors (unbound names, unknown operators or intrinsics,
// constant zero loop steps) are diagnosed once here. Genuinely dynamic
// errors (subscripts out of range, division by zero, runtime zero
// steps) keep their interpreter messages and abort the run via a typed
// panic recovered in Runner.Run.
//
// The lowering invariant: for any run that completes, the sequence of
// memory references (address, kind, processor, epoch) and the cycle
// charges are identical to the tree-walking interpreter's, so results
// stay bit-for-bit equal to the sequential oracle and all timing
// figures are unchanged.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/epochg"
	"repro/internal/marking"
	"repro/internal/memsys"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/sections"
)

// IR is a program lowered to the closure IR. Its closures name each
// global by its position in prog.Prog.Vars and read the global's address
// from the layout the run is bound to, so one IR serves every layout of
// its front end: every line size and scalar padding. It is immutable
// after Lower and safe for concurrent use.
type IR struct {
	procs       map[string]*loweredProc
	streamDiags []StreamDiag

	// vars are the lowering layout's globals, read for their names, and
	// shapes their array geometry by the same position, nil for a
	// scalar. Only Dims, Strides and Name of a shape are read: its Base
	// is the lowering layout's.
	vars   []prog.Var
	shapes []*prog.ArrayInfo
	inits  []scalarInit // scalar initial values, in Vars order
}

// scalarInit is one scalar's load-time value.
type scalarInit struct {
	v    int // position in Vars
	init float64
}

// Program is an IR bound to one memory layout: the IR plus the table of
// global base addresses its runs read. It is immutable and safe for
// concurrent Runners.
type Program struct {
	ir    *IR
	prog  *prog.Prog
	bases []prog.Word // prog.Vars[i].Base
}

// Prog exposes the underlying program model (memory layout, scalars).
func (lp *Program) Prog() *prog.Prog { return lp.prog }

// IR returns the layout-free closure IR the program runs.
func (lp *Program) IR() *IR { return lp.ir }

// StreamDiags reports every innermost-loop fast-path recognition
// decision, in lowering order (procedures sorted by name). Recognition
// is config-independent; whether a recognized loop actually streams at
// run time depends on the scheme and observation level (see Runner.Run).
func (lp *Program) StreamDiags() []StreamDiag { return lp.ir.streamDiags }

// Bind attaches the IR to p's layout, in O(#globals) and without
// lowering. p must lay out the globals the IR was lowered from (the same
// names and array shapes, in the same order): any layout of the same
// checked program qualifies.
func (ir *IR) Bind(p *prog.Prog) (*Program, error) {
	if len(p.Vars) != len(ir.vars) {
		return nil, fmt.Errorf("sim: layout has %d globals, the lowered program %d", len(p.Vars), len(ir.vars))
	}
	bases := make([]prog.Word, len(p.Vars))
	for i, v := range p.Vars {
		ai, shape := p.Arrays[v.Name], ir.shapes[i]
		if v.Name != ir.vars[i].Name || (ai == nil) != (shape == nil) || (ai != nil && !slices.Equal(ai.Dims, shape.Dims)) {
			return nil, fmt.Errorf("sim: layout global %d, %s, is not the lowered program's %s", i, v.Name, ir.vars[i].Name)
		}
		bases[i] = v.Base
	}
	return &Program{ir: ir, prog: p, bases: bases}, nil
}

// evalFn evaluates an expression in a task context, charging operator
// cycles and driving memory references through the coherence scheme.
type evalFn func(*task) float64

// stmtFn executes one statement in a task context.
type stmtFn func(*task)

// addrFn computes the word address of an array element reference.
type addrFn func(*task) prog.Word

// loweredProc is one procedure's executable form.
type loweredProc struct {
	name     string
	graph    *epochg.Graph
	numSlots int           // frame size in loop-variable slots
	nodes    []loweredNode // indexed by EFG node ID
}

// varRef names a variable: a global by its position in prog.Prog.Vars,
// or a formal array binding, resolved through the frame at run time.
type varRef struct {
	formal int // binding index, or -1 for a global
	v      int // the global's position in Vars
}

// global is the varRef of the global at position v in Vars.
func global(v int) varRef { return varRef{formal: -1, v: v} }

// resolve returns the position in Vars of the global the reference
// names under an invocation's formal bindings.
func (r varRef) resolve(arrays []int) int {
	if r.formal >= 0 {
		return arrays[r.formal]
	}
	return r.v
}

// loweredDoall is a parallel loop's executable payload.
type loweredDoall struct {
	varSlot int
	lo, hi  evalFn
	body    []stmtFn

	// pos and varName identify the source DOALL for fast-path fallback
	// reporting (-require-fastpath).
	pos     pfl.Pos
	varName string

	// seqOnly forces sequential execution under host parallelism: the
	// body contains a critical or ordered section, whose stores must be
	// visible to other iterations' bypass reads mid-epoch (and whose
	// lock/ordering semantics assume one iteration at a time).
	seqOnly bool
}

// loweredNode is the executable payload of one EFG node.
type loweredNode struct {
	serial []stmtFn // KindSerial

	// KindHeader: loop control. step == nil means step 1.
	loopVarSlot  int
	lo, hi, step evalFn
	stepPos      pfl.Pos

	cond evalFn // KindBranch

	doall *loweredDoall // KindDoall

	callee   *loweredProc // KindCall
	callArgs []varRef

	mods []varRef // may-written variables (counting nodes only)
}

// runError carries a runtime diagnostic out of the closure IR;
// Runner.Run recovers it into an ordinary error.
type runError struct{ err error }

// fail aborts the run with a formatted runtime error.
func fail(format string, args ...any) {
	panic(runError{fmt.Errorf(format, args...)})
}

// failAddr aborts with the interpreter's subscript-range diagnostic.
func failAddr(pos pfl.Pos, ai *prog.ArrayInfo, d int, i int64) {
	panic(runError{fmt.Errorf("sim: %s: %v", pos, ai.SubscriptErr(d, i))})
}

// Lower translates every analyzed procedure of a compiled program into
// the closure IR and binds it to p's layout. All static diagnostics
// surface here, once; the IR (Program.IR) serves every other layout of
// the same program through Bind.
func Lower(p *prog.Prog, marks *marking.Result) (*Program, error) {
	shapes := make([]*prog.ArrayInfo, len(p.Vars))
	for _, ai := range p.Arrays {
		shapes[ai.Var] = ai
	}
	l := &lowerer{p: p, marks: marks, procs: map[string]*loweredProc{}, shapes: shapes}
	names := make([]string, 0, len(marks.Analysis.Procs))
	for name := range marks.Analysis.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := l.proc(name); err != nil {
			return nil, err
		}
	}
	if l.procs["main"] == nil {
		return nil, fmt.Errorf("sim: no analysis for proc %q", "main")
	}
	ir := &IR{procs: l.procs, streamDiags: l.streamDiags, vars: p.Vars, shapes: shapes}
	for v, g := range p.Vars {
		if sc := p.Scalars[g.Name]; sc != nil {
			ir.inits = append(ir.inits, scalarInit{v: v, init: sc.Init})
		}
	}
	return ir.Bind(p)
}

type lowerer struct {
	p           *prog.Prog // names, parameters and shapes; never addresses
	marks       *marking.Result
	procs       map[string]*loweredProc
	streamDiags []StreamDiag
	shapes      []*prog.ArrayInfo // IR.shapes
}

// scalar returns the position in Vars of the global scalar name.
func (l *lowerer) scalar(name string) (int, bool) {
	if l.p.Scalars[name] == nil {
		return 0, false
	}
	return l.p.VarIndex[name], true
}

// premark resolves a reference's compiler mark to the memory-system
// read kind and Time-Read window, once.
func (l *lowerer) premark(refID int) (memsys.ReadKind, int) {
	mk := l.marks.MarkOf(refID)
	switch mk.Kind {
	case marking.TimeRead:
		return memsys.ReadTime, mk.Window
	case marking.Bypass:
		return memsys.ReadBypass, 0
	default:
		return memsys.ReadRegular, 0
	}
}

// proc lowers one procedure (memoized; the call graph is acyclic).
func (l *lowerer) proc(name string) (*loweredProc, error) {
	if lp, ok := l.procs[name]; ok {
		return lp, nil
	}
	ps := l.marks.Analysis.Procs[name]
	if ps == nil {
		return nil, fmt.Errorf("sim: no analysis for proc %q", name)
	}
	ast := l.p.AST.Proc(name)
	lp := &loweredProc{name: name, graph: ps.Graph}
	l.procs[name] = lp

	pl := &procLowerer{l: l, procName: name, slots: map[string]int{}, formals: map[string]int{}}
	for i, f := range ast.Formals {
		pl.formals[f.Name] = i
	}
	// Pre-assign a frame slot per loop-variable name. The checker bans
	// all shadowing, so a name identifies at most one simultaneously
	// live loop variable; sequential same-named loops share a slot.
	collectLoopVars(ast.Body, func(v string) {
		if _, ok := pl.slots[v]; !ok {
			pl.slots[v] = len(pl.slots)
		}
	})

	lp.nodes = make([]loweredNode, len(ps.Graph.Nodes))
	for _, n := range ps.Graph.Nodes {
		if err := pl.node(n, &lp.nodes[n.ID], ps.Nodes[n.ID]); err != nil {
			return nil, err
		}
	}
	lp.numSlots = len(pl.slots)
	return lp, nil
}

// blockNeedsSequential reports whether a DOALL body contains a critical
// or ordered section anywhere inside it. Such sections communicate
// between iterations mid-epoch (bypass reads must see other iterations'
// eager stores), so the doall cannot shard across host goroutines.
func blockNeedsSequential(b *pfl.Block) bool {
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *pfl.CriticalStmt, *pfl.OrderedStmt:
			return true
		case *pfl.ForStmt:
			if blockNeedsSequential(st.Body) {
				return true
			}
		case *pfl.IfStmt:
			if blockNeedsSequential(st.Then) {
				return true
			}
			if st.Else != nil && blockNeedsSequential(st.Else) {
				return true
			}
		case *pfl.DoallStmt:
			if blockNeedsSequential(st.Body) {
				return true
			}
		}
	}
	return false
}

// collectLoopVars visits every loop binder in a block, outermost first.
func collectLoopVars(b *pfl.Block, add func(string)) {
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *pfl.ForStmt:
			add(st.Var)
			collectLoopVars(st.Body, add)
		case *pfl.DoallStmt:
			add(st.Var)
			collectLoopVars(st.Body, add)
		case *pfl.IfStmt:
			collectLoopVars(st.Then, add)
			if st.Else != nil {
				collectLoopVars(st.Else, add)
			}
		case *pfl.CriticalStmt:
			collectLoopVars(st.Body, add)
		case *pfl.OrderedStmt:
			collectLoopVars(st.Body, add)
		}
	}
}

// procLowerer lowers statements and expressions of one procedure.
type procLowerer struct {
	l        *lowerer
	procName string
	slots    map[string]int // loop-variable name -> frame slot
	formals  map[string]int // formal array name -> binding index
	inCrit   bool           // lowering inside a critical/ordered body
}

// node lowers one EFG node's payload. Epoch-mod lists are precomputed
// only where the interpreter reported them: serial and doall nodes.
func (pl *procLowerer) node(n *epochg.Node, ln *loweredNode, summary *sections.NodeSummary) error {
	var err error
	switch n.Kind {
	case epochg.KindSerial:
		ln.serial = make([]stmtFn, len(n.Stmts))
		for i, s := range n.Stmts {
			if ln.serial[i], err = pl.stmt(s); err != nil {
				return err
			}
		}
		ln.mods = pl.modRefs(summary)

	case epochg.KindHeader:
		ln.loopVarSlot = pl.slots[n.Loop.Var]
		ln.stepPos = n.Loop.Lo.Position()
		if ln.lo, err = pl.evalFn(n.Loop.Lo); err != nil {
			return err
		}
		if ln.hi, err = pl.evalFn(n.Loop.Hi); err != nil {
			return err
		}
		if n.Loop.Step != nil {
			le, err := pl.expr(n.Loop.Step)
			if err != nil {
				return err
			}
			if le.isConst() && int64(le.val) == 0 {
				return fmt.Errorf("sim: %s: loop step is zero", ln.stepPos)
			}
			ln.step = le.materialize()
		}

	case epochg.KindBranch:
		if ln.cond, err = pl.evalFn(n.Branch.Cond); err != nil {
			return err
		}

	case epochg.KindDoall:
		d := n.Doall
		ld := &loweredDoall{
			varSlot: pl.slots[d.Var],
			seqOnly: blockNeedsSequential(d.Body),
			pos:     d.Pos,
			varName: d.Var,
		}
		if ld.lo, err = pl.evalFn(d.Lo); err != nil {
			return err
		}
		if ld.hi, err = pl.evalFn(d.Hi); err != nil {
			return err
		}
		if ld.body, err = pl.block(d.Body); err != nil {
			return err
		}
		ln.doall = ld
		ln.mods = pl.modRefs(summary)

	case epochg.KindCall:
		ln.callArgs = make([]varRef, len(n.Call.Args))
		for i, arg := range n.Call.Args {
			if ln.callArgs[i], err = pl.arraySrc(arg); err != nil {
				return err
			}
		}
		if ln.callee, err = pl.l.proc(n.Call.Name); err != nil {
			return err
		}
	}

	return nil
}

// modRefs pre-translates a node's may-written variable names: formal
// array names become binding indices resolved at runtime, globals their
// position in the program's Vars.
func (pl *procLowerer) modRefs(summary *sections.NodeSummary) []varRef {
	if summary == nil {
		return nil
	}
	var mods []varRef
	for _, name := range summary.Mod.Names() {
		if fi, ok := pl.formals[name]; ok {
			mods = append(mods, varRef{formal: fi})
		} else if v, ok := pl.l.p.VarIndex[name]; ok {
			mods = append(mods, global(v))
		}
	}
	return mods
}

// arraySrc resolves an array name through the formal bindings.
func (pl *procLowerer) arraySrc(name string) (varRef, error) {
	if i, ok := pl.formals[name]; ok {
		return varRef{formal: i}, nil
	}
	if ai, ok := pl.l.p.Arrays[name]; ok {
		return global(ai.Var), nil
	}
	return varRef{}, fmt.Errorf("sim: unknown array %q", name)
}

// block lowers a statement block.
func (pl *procLowerer) block(b *pfl.Block) ([]stmtFn, error) {
	fns := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		var err error
		if fns[i], err = pl.stmt(s); err != nil {
			return nil, err
		}
	}
	return fns, nil
}

// stmt lowers one statement into a pre-bound closure.
func (pl *procLowerer) stmt(s pfl.Stmt) (stmtFn, error) {
	switch st := s.(type) {
	case *pfl.AssignStmt:
		rhs, err := pl.evalFn(st.RHS)
		if err != nil {
			return nil, err
		}
		switch lhs := st.LHS.(type) {
		case *pfl.VarRef:
			sv, ok := pl.l.scalar(lhs.Name)
			if !ok {
				return nil, fmt.Errorf("sim: %s: assignment to non-scalar %q", lhs.Pos, lhs.Name)
			}
			ref := int32(lhs.RefID)
			return func(t *task) {
				v := rhs(t)
				t.charge(1)
				t.r.write(t, t.bases[sv], v, ref)
			}, nil
		case *pfl.IndexRef:
			af, err := pl.addrFn(lhs)
			if err != nil {
				return nil, err
			}
			ref := int32(lhs.RefID)
			return func(t *task) {
				v := rhs(t)
				t.charge(1)
				t.r.write(t, af(t), v, ref)
			}, nil
		default:
			return nil, fmt.Errorf("sim: invalid assignment target %T", st.LHS)
		}

	case *pfl.ForStmt:
		lo, err := pl.evalFn(st.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := pl.evalFn(st.Hi)
		if err != nil {
			return nil, err
		}
		var step evalFn
		if st.Step != nil {
			le, err := pl.expr(st.Step)
			if err != nil {
				return nil, err
			}
			if le.isConst() && int64(le.val) == 0 {
				return nil, fmt.Errorf("sim: %s: loop step is zero", st.Pos)
			}
			step = le.materialize()
		}
		slot := pl.slots[st.Var]
		body, err := pl.block(st.Body)
		if err != nil {
			return nil, err
		}
		pos := st.Pos
		// Stream recognition (see stream.go). Recognition is static and
		// config-independent: whether a recognized loop actually streams is
		// decided per run (cfg.FastPath) and per entry (affine guards),
		// with runScalarIters as the always-correct fallback. Loops inside
		// critical/ordered sections never stream: their references take
		// the critical coherence path.
		var sl *streamLoop
		var blk *streamBlock
		if pl.inCrit {
			blk = &streamBlock{pos: st.Pos, reason: "inside a critical/ordered section"}
		} else {
			sl, blk = pl.tryStream(st, slot, body)
		}
		diagIdx := len(pl.l.streamDiags)
		diag := StreamDiag{Proc: pl.procName, Pos: st.Pos, Var: st.Var}
		if sl != nil {
			sl.diag = diagIdx
			diag.OK = true
			diag.Reads, diag.Writes = len(sl.reads), len(sl.writes)
		} else {
			diag.Reason, diag.ReasonPos, diag.Outer = blk.reason, blk.pos, blk.outer
		}
		pl.l.streamDiags = append(pl.l.streamDiags, diag)
		return func(t *task) {
			lo, hi := int64(lo(t)), int64(hi(t))
			s := int64(1)
			if step != nil {
				s = int64(step(t))
				if s == 0 {
					fail("sim: %s: loop step is zero", pos)
				}
			}
			if sl != nil && !t.inCrit {
				if t.r.cfg.FastPath {
					if runStream(t, sl, lo, hi, s) {
						t.r.noteStreamRun()
						return
					}
					t.r.noteStreamFallback(diagIdx, "an entry guard failed (non-affine addresses or out-of-model layout this entry)")
				} else {
					t.r.noteStreamFallback(diagIdx, "the fast path is disabled (-fastpath=false)")
				}
			}
			runScalarIters(t, slot, body, lo, hi, s)
		}, nil

	case *pfl.IfStmt:
		cond, err := pl.evalFn(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := pl.block(st.Then)
		if err != nil {
			return nil, err
		}
		var els []stmtFn
		if st.Else != nil {
			if els, err = pl.block(st.Else); err != nil {
				return nil, err
			}
		}
		return func(t *task) {
			v := cond(t)
			t.charge(1)
			if v != 0 {
				for _, b := range then {
					b(t)
				}
			} else {
				for _, b := range els {
					b(t)
				}
			}
		}, nil

	case *pfl.CriticalStmt:
		return pl.criticalBody(st.Body)

	case *pfl.OrderedStmt:
		// The simulator executes DOALL iterations in ascending order, so
		// the doacross ordering holds by construction; the cost and the
		// critical coherence path match CriticalStmt.
		return pl.criticalBody(st.Body)

	default:
		return nil, fmt.Errorf("sim: %s: unexpected statement %T in task body", s.Position(), s)
	}
}

// criticalBody lowers a critical or ordered section body: lock cost,
// then the body with every reference on the critical coherence path.
func (pl *procLowerer) criticalBody(b *pfl.Block) (stmtFn, error) {
	prevCrit := pl.inCrit
	pl.inCrit = true
	body, err := pl.block(b)
	pl.inCrit = prevCrit
	if err != nil {
		return nil, err
	}
	return func(t *task) {
		t.charge(t.r.cfg.LockCycles)
		t.inCrit = true
		for _, s := range body {
			s(t)
		}
		t.inCrit = false
	}, nil
}

// lexpr is a lowered expression: either a pre-bound closure or a folded
// constant with its accumulated operator-cycle cost (folding must not
// change timing, so the charges survive the fold).
type lexpr struct {
	fn   evalFn
	val  float64
	cost int64
}

func (le lexpr) isConst() bool { return le.fn == nil }

func constExpr(v float64, cost int64) lexpr { return lexpr{val: v, cost: cost} }

// materialize turns a lowered expression into an executable closure.
func (le lexpr) materialize() evalFn {
	if le.fn != nil {
		return le.fn
	}
	v := le.val
	if le.cost == 0 {
		return func(*task) float64 { return v }
	}
	c := le.cost
	return func(t *task) float64 { t.charge(c); return v }
}

// evalFn lowers and materializes in one step.
func (pl *procLowerer) evalFn(e pfl.Expr) (evalFn, error) {
	le, err := pl.expr(e)
	if err != nil {
		return nil, err
	}
	return le.materialize(), nil
}

// expr lowers one expression.
func (pl *procLowerer) expr(e pfl.Expr) (lexpr, error) {
	switch ex := e.(type) {
	case *pfl.NumLit:
		return constExpr(ex.Val, 0), nil

	case *pfl.VarRef:
		if slot, ok := pl.slots[ex.Name]; ok {
			return lexpr{fn: func(t *task) float64 { return float64(t.slots[slot]) }}, nil
		}
		if pv, ok := pl.l.p.Params[ex.Name]; ok {
			return constExpr(float64(pv), 0), nil
		}
		if sv, ok := pl.l.scalar(ex.Name); ok {
			kind, window := pl.l.premark(ex.RefID)
			ref := int32(ex.RefID)
			return lexpr{fn: func(t *task) float64 {
				k, w := kind, window
				if t.inCrit {
					k, w = memsys.ReadBypass, 0
				}
				return t.r.read(t, t.bases[sv], k, w, ref)
			}}, nil
		}
		return lexpr{}, fmt.Errorf("sim: %s: unbound name %q", ex.Pos, ex.Name)

	case *pfl.IndexRef:
		af, err := pl.addrFn(ex)
		if err != nil {
			return lexpr{}, err
		}
		kind, window := pl.l.premark(ex.RefID)
		ref := int32(ex.RefID)
		return lexpr{fn: func(t *task) float64 {
			addr := af(t)
			k, w := kind, window
			if t.inCrit {
				k, w = memsys.ReadBypass, 0
			}
			return t.r.read(t, addr, k, w, ref)
		}}, nil

	case *pfl.UnExpr:
		x, err := pl.expr(ex.X)
		if err != nil {
			return lexpr{}, err
		}
		switch ex.Op {
		case "-":
			if x.isConst() {
				return constExpr(-x.val, x.cost+1), nil
			}
			xf := x.fn
			return lexpr{fn: func(t *task) float64 {
				v := xf(t)
				t.charge(1)
				return -v
			}}, nil
		case "!":
			if x.isConst() {
				return constExpr(boolVal(x.val == 0), x.cost+1), nil
			}
			xf := x.fn
			return lexpr{fn: func(t *task) float64 {
				v := xf(t)
				t.charge(1)
				return boolVal(v == 0)
			}}, nil
		}
		return lexpr{}, fmt.Errorf("sim: %s: unknown unary op %q", ex.Pos, ex.Op)

	case *pfl.CallExpr:
		return pl.intrinsic(ex)

	case *pfl.BinExpr:
		return pl.binary(ex)

	default:
		return lexpr{}, fmt.Errorf("sim: unknown expression %T", e)
	}
}

// binary lowers a binary operation, folding constant subtrees.
func (pl *procLowerer) binary(ex *pfl.BinExpr) (lexpr, error) {
	x, err := pl.expr(ex.X)
	if err != nil {
		return lexpr{}, err
	}
	y, err := pl.expr(ex.Y)
	if err != nil {
		return lexpr{}, err
	}

	// Short-circuit boolean operators: the right operand must not
	// evaluate (or charge) when the left decides.
	switch ex.Op {
	case "&&":
		if x.isConst() {
			if x.val == 0 {
				return constExpr(0, x.cost+1), nil
			}
			if y.isConst() {
				return constExpr(boolVal(y.val != 0), x.cost+1+y.cost), nil
			}
			pre, yf := x.cost+1, y.fn
			return lexpr{fn: func(t *task) float64 {
				t.charge(pre)
				return boolVal(yf(t) != 0)
			}}, nil
		}
		xf, yf := x.fn, y.materialize()
		return lexpr{fn: func(t *task) float64 {
			v := xf(t)
			t.charge(1)
			if v == 0 {
				return 0
			}
			return boolVal(yf(t) != 0)
		}}, nil
	case "||":
		if x.isConst() {
			if x.val != 0 {
				return constExpr(1, x.cost+1), nil
			}
			if y.isConst() {
				return constExpr(boolVal(y.val != 0), x.cost+1+y.cost), nil
			}
			pre, yf := x.cost+1, y.fn
			return lexpr{fn: func(t *task) float64 {
				t.charge(pre)
				return boolVal(yf(t) != 0)
			}}, nil
		}
		xf, yf := x.fn, y.materialize()
		return lexpr{fn: func(t *task) float64 {
			v := xf(t)
			t.charge(1)
			if v != 0 {
				return 1
			}
			return boolVal(yf(t) != 0)
		}}, nil
	}

	if x.isConst() && y.isConst() {
		if v, ok := foldBin(ex.Op, x.val, y.val); ok {
			return constExpr(v, x.cost+y.cost+1), nil
		}
	}
	xf, yf := x.materialize(), y.materialize()
	pos := ex.Pos
	var fn evalFn
	switch ex.Op {
	case "+":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return a + b }
	case "-":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return a - b }
	case "*":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return a * b }
	case "/":
		fn = func(t *task) float64 {
			a, b := xf(t), yf(t)
			t.charge(1)
			if b == 0 {
				fail("sim: %s: division by zero", pos)
			}
			return a / b
		}
	case "%":
		fn = func(t *task) float64 {
			a, b := xf(t), yf(t)
			t.charge(1)
			ib := int64(b)
			if ib == 0 {
				fail("sim: %s: modulo by zero", pos)
			}
			m := int64(a) % ib
			if m < 0 {
				m += absI64(ib)
			}
			return float64(m)
		}
	case "<":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a < b) }
	case "<=":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a <= b) }
	case ">":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a > b) }
	case ">=":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a >= b) }
	case "==":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a == b) }
	case "!=":
		fn = func(t *task) float64 { a, b := xf(t), yf(t); t.charge(1); return boolVal(a != b) }
	default:
		return lexpr{}, fmt.Errorf("sim: %s: unknown op %q", ex.Pos, ex.Op)
	}
	return lexpr{fn: fn}, nil
}

// foldBin evaluates a non-shortcircuit binary op over constants. The
// error cases (division and modulo by zero) refuse to fold so the
// runtime closure reports them exactly as the interpreter did.
func foldBin(op string, x, y float64) (float64, bool) {
	switch op {
	case "+":
		return x + y, true
	case "-":
		return x - y, true
	case "*":
		return x * y, true
	case "/":
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case "%":
		iy := int64(y)
		if iy == 0 {
			return 0, false
		}
		m := int64(x) % iy
		if m < 0 {
			m += absI64(iy)
		}
		return float64(m), true
	case "<":
		return boolVal(x < y), true
	case "<=":
		return boolVal(x <= y), true
	case ">":
		return boolVal(x > y), true
	case ">=":
		return boolVal(x >= y), true
	case "==":
		return boolVal(x == y), true
	case "!=":
		return boolVal(x != y), true
	default:
		return 0, false
	}
}

// intrinsic lowers a builtin application, folding constant arguments
// when the application cannot error.
func (pl *procLowerer) intrinsic(ex *pfl.CallExpr) (lexpr, error) {
	args := make([]lexpr, len(ex.Args))
	allConst := true
	var cost int64
	for i, a := range ex.Args {
		le, err := pl.expr(a)
		if err != nil {
			return lexpr{}, err
		}
		args[i] = le
		allConst = allConst && le.isConst()
		cost += le.cost
	}
	if _, ok := pfl.Intrinsics[ex.Name]; !ok {
		return lexpr{}, fmt.Errorf("sim: %s: unknown intrinsic %q", ex.Pos, ex.Name)
	}
	if allConst {
		vals := make([]float64, len(args))
		for i, a := range args {
			vals[i] = a.val
		}
		if v, err := evalIntrinsic(ex, vals); err == nil {
			return constExpr(v, cost+4), nil
		}
		// Erroring applications (sqrt of a negative constant, ...) stay
		// unfolded: the diagnostic fires if and when the site executes.
	}
	pos := ex.Pos
	a0 := args[0].materialize()
	var fn evalFn
	switch ex.Name {
	case "abs":
		fn = func(t *task) float64 { v := a0(t); t.charge(4); return math.Abs(v) }
	case "sqrt":
		fn = func(t *task) float64 {
			v := a0(t)
			t.charge(4)
			if v < 0 {
				fail("sim: %s: sqrt of negative value %v", pos, v)
			}
			return math.Sqrt(v)
		}
	case "exp":
		fn = func(t *task) float64 { v := a0(t); t.charge(4); return math.Exp(v) }
	case "log":
		fn = func(t *task) float64 {
			v := a0(t)
			t.charge(4)
			if v <= 0 {
				fail("sim: %s: log of non-positive value %v", pos, v)
			}
			return math.Log(v)
		}
	case "sin":
		fn = func(t *task) float64 { v := a0(t); t.charge(4); return math.Sin(v) }
	case "cos":
		fn = func(t *task) float64 { v := a0(t); t.charge(4); return math.Cos(v) }
	case "floor":
		fn = func(t *task) float64 { v := a0(t); t.charge(4); return math.Floor(v) }
	case "min":
		a1 := args[1].materialize()
		fn = func(t *task) float64 { v0, v1 := a0(t), a1(t); t.charge(4); return math.Min(v0, v1) }
	case "max":
		a1 := args[1].materialize()
		fn = func(t *task) float64 { v0, v1 := a0(t), a1(t); t.charge(4); return math.Max(v0, v1) }
	}
	return lexpr{fn: fn}, nil
}

// addrFn lowers an array element reference to an allocation-free
// address computation over precomputed strides and the bound layout's
// base address. Ranks 1 and 2 (the kernels' shapes) get dedicated
// closures; higher ranks and formal bindings share the generic path.
func (pl *procLowerer) addrFn(e *pfl.IndexRef) (addrFn, error) {
	src, err := pl.arraySrc(e.Name)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %v", e.Pos, err)
	}
	subs := make([]evalFn, len(e.Subs))
	for i, s := range e.Subs {
		if subs[i], err = pl.evalFn(s); err != nil {
			return nil, err
		}
	}
	pos := e.Pos
	if src.formal < 0 {
		v := src.v
		ai := pl.l.shapes[v]
		if len(subs) != len(ai.Dims) {
			return nil, fmt.Errorf("sim: %s: prog: array %s: got %d subscripts, want %d",
				pos, ai.Name, len(subs), len(ai.Dims))
		}
		switch len(subs) {
		case 1:
			s0, d0 := subs[0], ai.Dims[0]
			return func(t *task) prog.Word {
				i := int64(s0(t))
				if i < 0 || i >= d0 {
					failAddr(pos, ai, 0, i)
				}
				return t.bases[v] + prog.Word(i)
			}, nil
		case 2:
			s0, s1 := subs[0], subs[1]
			d0, d1, stride0 := ai.Dims[0], ai.Dims[1], ai.Strides[0]
			return func(t *task) prog.Word {
				i := int64(s0(t))
				j := int64(s1(t))
				if i < 0 || i >= d0 {
					failAddr(pos, ai, 0, i)
				}
				if j < 0 || j >= d1 {
					failAddr(pos, ai, 1, j)
				}
				return t.bases[v] + prog.Word(i*stride0+j)
			}, nil
		default:
			return func(t *task) prog.Word { return addrGeneric(t, pos, ai, t.bases[v], subs) }, nil
		}
	}
	fi, shapes := src.formal, pl.l.shapes
	return func(t *task) prog.Word {
		v := t.arrays[fi]
		return addrGeneric(t, pos, shapes[v], t.bases[v], subs)
	}, nil
}

// addrGeneric linearizes a reference of any rank against a (possibly
// runtime-bound) array shape and base without allocating.
func addrGeneric(t *task, pos pfl.Pos, ai *prog.ArrayInfo, base prog.Word, subs []evalFn) prog.Word {
	var lin int64
	for d, sf := range subs {
		i := int64(sf(t))
		if i < 0 || i >= ai.Dims[d] {
			failAddr(pos, ai, d, i)
		}
		lin += i * ai.Strides[d]
	}
	return base + prog.Word(lin)
}
