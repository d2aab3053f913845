// Package sections implements the array data-flow analysis of the
// compiler: per-epoch MOD (may-write) and USE (may-read) array sections,
// per-procedure summaries (GMOD/GUSE) propagated bottom-up over the call
// graph, and the top-down "entry freshness" analysis that lets reads in a
// callee keep locality across procedure boundaries instead of assuming
// every incoming array was just written (the paper's interprocedural
// contribution).
//
// All results are conservative in the safe direction: sections may
// overapproximate (hulls, Unknown bounds) and distances underapproximate.
package sections

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/epochg"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/symexpr"
)

// Infinity is the entry-freshness value meaning "never written before this
// point" (reads of such data can never be stale).
const Infinity = int(1) << 30

// LoopFrame records one serial for-loop enclosing a reference within an
// epoch node.
type LoopFrame struct {
	Var      string
	Lo, Hi   symexpr.Expr
	NonEmpty bool // provably iterates at least once
	// Stmt identifies the source loop, so the marking phase can tell when
	// two references share the same dynamic loop instance.
	Stmt *pfl.ForStmt
}

// Ref is one array-element or scalar reference within an epoch node, with
// enough context to compute its section under several expansions.
type Ref struct {
	RefID      int
	Array      string // array or scalar name as written in this proc
	IsScalar   bool
	Write      bool
	InCritical bool
	// InOrdered marks references inside DOACROSS ordered sections, which
	// permit same-epoch cross-iteration flow and need critical-style
	// coherence handling.
	InOrdered bool
	Seq       int         // walk order within the node (program order for one task)
	CondDepth int         // enclosing if-statements within the node body
	Loops     []LoopFrame // enclosing serial loops, outermost first
	// Doall context: set when the ref sits inside a DOALL body.
	DoallVar         string
	DoallLo, DoallHi symexpr.Expr
	Subs             []symexpr.Expr // affine subscripts (loop + doall vars symbolic)
	Pos              pfl.Pos
}

// PointSec returns the exact (symbolic) element section of the reference.
func (r *Ref) PointSec() symexpr.Section { return symexpr.PointSection(r.Subs) }

// TaskSec returns the section touched by one task (one doall iteration or
// the single serial task): expanded over enclosing serial loops, with the
// doall variable left symbolic.
func (r *Ref) TaskSec() symexpr.Section {
	s := r.PointSec()
	for i := len(r.Loops) - 1; i >= 0; i-- {
		f := r.Loops[i]
		s = s.Expand(f.Var, f.Lo, f.Hi)
	}
	return s
}

// NodeSec returns the section touched by the whole epoch (all tasks):
// TaskSec additionally expanded over the doall variable.
func (r *Ref) NodeSec() symexpr.Section {
	s := r.TaskSec()
	if r.DoallVar != "" {
		s = s.Expand(r.DoallVar, r.DoallLo, r.DoallHi)
	}
	return s
}

// MustExecute reports whether the reference executes unconditionally in
// every task instance of its node (no enclosing ifs, all enclosing loops
// provably non-empty). Only such references may serve as covering
// definitions in the marking phase.
func (r *Ref) MustExecute() bool {
	if r.CondDepth > 0 {
		return false
	}
	for _, f := range r.Loops {
		if !f.NonEmpty {
			return false
		}
	}
	return true
}

// ArraySections maps array/scalar name to a hull section.
type ArraySections map[string]symexpr.Section

// add hulls sec into as[name].
func (as ArraySections) add(name string, sec symexpr.Section, env symexpr.Env) {
	if cur, ok := as[name]; ok {
		as[name] = cur.Hull(sec, env)
	} else {
		as[name] = sec
	}
}

// Clone deep-copies the map (sections are immutable values).
func (as ArraySections) Clone() ArraySections {
	c := make(ArraySections, len(as))
	for k, v := range as {
		c[k] = v
	}
	return c
}

// Names returns the sorted key set.
func (as ArraySections) Names() []string {
	ns := make([]string, 0, len(as))
	for n := range as {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// NodeSummary is the per-epoch analysis result.
type NodeSummary struct {
	Node *epochg.Node
	Refs []*Ref
	Mod  ArraySections // may-write hull per array (cross-task)
	Use  ArraySections // may-read hull per array (cross-task)
}

// ProcSummary is the per-procedure analysis result.
type ProcSummary struct {
	Proc  *pfl.Proc
	Graph *epochg.Graph
	Nodes []*NodeSummary // indexed by node ID

	// GMod/GUse summarize the procedure's side effects in terms of its own
	// array names (formals and globals), used by callers after renaming.
	GMod ArraySections
	GUse ArraySections

	// EntryFresh[array] is the minimum number of epoch-counter increments
	// that can separate the most recent pre-entry write of the array from
	// the procedure's entry node (Infinity = never written before entry).
	EntryFresh map[string]int
}

// Analysis holds the whole-program result.
type Analysis struct {
	// Prog is the program the analysis ran over. The analysis reads only
	// its parameters, global names and array shapes (through Affine, the
	// Arrays and Scalars maps, and Info.NumRefs), never an address, so
	// its result holds for every layout of the same checked program: a
	// run's addresses come from the layout it runs at (core.Compiled.Prog),
	// which need not be this one.
	Prog  *prog.Prog
	Procs map[string]*ProcSummary
	// Interproc records whether interprocedural propagation was enabled;
	// when false, call nodes MOD/USE everything and entry freshness is 0
	// (the whole-cache-invalidate-at-calls baseline the paper argues
	// against).
	Interproc bool
}

// Options configures the analysis.
type Options struct {
	// Interproc enables interprocedural summaries and entry freshness.
	// Disabled, every call conservatively clobbers all arrays and callees
	// assume arbitrary pre-entry writes (the paper's ablation baseline).
	Interproc bool
}

// Analyze runs the section analysis over all procedures.
func Analyze(p *prog.Prog, opts Options) *Analysis {
	a := &Analysis{Prog: p, Procs: make(map[string]*ProcSummary), Interproc: opts.Interproc}

	// Build graphs and local (intra-procedural) summaries first.
	for _, pr := range p.AST.Procs {
		ps := &ProcSummary{
			Proc:       pr,
			Graph:      epochg.Build(pr),
			GMod:       ArraySections{},
			GUse:       ArraySections{},
			EntryFresh: map[string]int{},
		}
		ps.Nodes = make([]*NodeSummary, len(ps.Graph.Nodes))
		for _, n := range ps.Graph.Nodes {
			ps.Nodes[n.ID] = a.summarizeNode(pr, n)
		}
		a.Procs[pr.Name] = ps
	}

	// Bottom-up GMOD/GUSE over the (acyclic) call graph.
	done := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if done[name] {
			return
		}
		done[name] = true
		ps := a.Procs[name]
		for _, ns := range ps.Nodes {
			if ns.Node.Kind == epochg.KindCall {
				visit(ns.Node.Call.Name)
				a.expandCall(ps, ns)
			}
		}
		for _, ns := range ps.Nodes {
			for arr, sec := range ns.Mod {
				ps.GMod.add(arr, sec, nil)
			}
			for arr, sec := range ns.Use {
				ps.GUse.add(arr, sec, nil)
			}
		}
	}
	for _, pr := range p.AST.Procs {
		visit(pr.Name)
	}

	a.computeEntryFreshness()
	return a
}

// summarizeNode collects refs and builds MOD/USE hulls for one node.
func (a *Analysis) summarizeNode(pr *pfl.Proc, n *epochg.Node) *NodeSummary {
	ns := &NodeSummary{Node: n, Mod: ArraySections{}, Use: ArraySections{}}
	w := &refWalker{prog: a.Prog, ns: ns}
	switch n.Kind {
	case epochg.KindSerial:
		for _, s := range n.Stmts {
			w.stmt(s)
		}
	case epochg.KindHeader:
		w.expr(n.Loop.Lo, false)
		w.expr(n.Loop.Hi, false)
		if n.Loop.Step != nil {
			w.expr(n.Loop.Step, false)
		}
	case epochg.KindBranch:
		w.expr(n.Branch.Cond, false)
	case epochg.KindDoall:
		d := n.Doall
		w.expr(d.Lo, false)
		w.expr(d.Hi, false)
		w.doallVar = d.Var
		w.doallLo = a.Prog.Affine(d.Lo, w.loopVarSet())
		w.doallHi = a.Prog.Affine(d.Hi, w.loopVarSet())
		for _, s := range d.Body.Stmts {
			w.stmt(s)
		}
	case epochg.KindCall:
		// Filled in by expandCall once the callee summary exists.
	}
	for _, r := range ns.Refs {
		sec := r.NodeSec()
		if r.Write {
			ns.Mod.add(r.Array, sec, nil)
		} else {
			ns.Use.add(r.Array, sec, nil)
		}
	}
	return ns
}

// expandCall fills a call node's MOD/USE from the callee's summary,
// renaming formals to actuals. Without interprocedural analysis the call
// clobbers every global array and scalar (rank-appropriate full sections).
func (a *Analysis) expandCall(caller *ProcSummary, ns *NodeSummary) {
	call := ns.Node.Call
	if !a.Interproc {
		for name, ai := range a.Prog.Arrays {
			ns.Mod.add(name, symexpr.FullSection(len(ai.Dims)), nil)
			ns.Use.add(name, symexpr.FullSection(len(ai.Dims)), nil)
		}
		for name := range a.Prog.Scalars {
			ns.Mod.add(name, symexpr.Section{}, nil)
			ns.Use.add(name, symexpr.Section{}, nil)
		}
		return
	}
	callee := a.Procs[call.Name]
	rename := map[string]string{}
	for i, f := range callee.Proc.Formals {
		rename[f.Name] = call.Args[i]
	}
	for arr, sec := range callee.GMod {
		name := arr
		if actual, ok := rename[arr]; ok {
			name = actual
		}
		ns.Mod.add(name, sec, nil)
	}
	for arr, sec := range callee.GUse {
		name := arr
		if actual, ok := rename[arr]; ok {
			name = actual
		}
		ns.Use.add(name, sec, nil)
	}
}

// computeEntryFreshness propagates, top-down from main, the minimum epoch
// distance between the last possible write of each array and each
// procedure's entry.
func (a *Analysis) computeEntryFreshness() {
	// Initialize: main's data was last "written" at program load; caches
	// start empty, so it can never be stale.
	for name, ps := range a.Procs {
		init := 0
		if name == "main" || a.Interproc {
			// main: nothing precedes program start; other procs start at
			// Infinity and are refined by their call sites below.
			init = Infinity
		}
		for arr := range a.Prog.Arrays {
			ps.EntryFresh[arr] = init
		}
		for sc := range a.Prog.Scalars {
			ps.EntryFresh[sc] = init
		}
		for _, f := range ps.Proc.Formals {
			ps.EntryFresh[f.Name] = init
		}
	}
	if !a.Interproc {
		return
	}

	// Process procedures in topological order (callers before callees).
	order := a.topoOrder()
	for _, name := range order {
		caller := a.Procs[name]
		de := caller.Graph.DistFromEntry()
		for _, ns := range caller.Nodes {
			if ns.Node.Kind != epochg.KindCall {
				continue
			}
			callee := a.Procs[ns.Node.Call.Name]
			rename := map[string]string{} // actual -> formal
			for i, f := range callee.Proc.Formals {
				rename[ns.Node.Call.Args[i]] = f.Name
			}
			// For every array the callee might read, compute the distance
			// from its last possible write to this call site (+1 for
			// entering the callee's entry node).
			for _, actual := range a.allNames() {
				calleeName := actual
				if f, ok := rename[actual]; ok {
					calleeName = f
				}
				// No +1 here: the callee's entry node is structural and
				// does not advance the epoch counter (epochg.Node.Counts).
				fresh := a.freshAtNode(caller, de, actual, ns.Node)
				if fresh < callee.EntryFresh[calleeName] {
					callee.EntryFresh[calleeName] = fresh
				}
			}
		}
	}
}

// freshAtNode computes the minimum epoch distance from any write of array
// `name` (inside the caller, or before the caller's entry) to node `at`.
func (a *Analysis) freshAtNode(ps *ProcSummary, distFromEntry []int, name string, at *epochg.Node) int {
	best := Infinity
	// Writes before the caller's own entry.
	if ef := ps.EntryFresh[name]; ef < Infinity {
		if d := distFromEntry[at.ID]; d >= 0 && ef+d < best {
			best = ef + d
		}
	}
	// Writes inside the caller.
	for _, ns := range ps.Nodes {
		if _, written := ns.Mod[name]; !written {
			continue
		}
		if ns.Node == at {
			// A write in the call node itself (callee writes then reads):
			// handled inside the callee's own analysis; the conservative
			// cross-visit distance is the shortest cycle.
			if d := ps.Graph.Dist(at, at); d > 0 && d < best {
				best = d
			}
			continue
		}
		if d := ps.Graph.Dist(ns.Node, at); d >= 0 && d < best {
			best = d
		}
	}
	return best
}

// topoOrder returns procedure names with callers before callees,
// starting from main.
func (a *Analysis) topoOrder() []string {
	var order []string
	seen := map[string]bool{}
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		order = append(order, name)
		ps := a.Procs[name]
		if ps == nil {
			return
		}
		for _, ns := range ps.Nodes {
			if ns.Node.Kind == epochg.KindCall {
				visit(ns.Node.Call.Name)
			}
		}
	}
	visit("main")
	// Unreachable procedures last, deterministically.
	var rest []string
	for name := range a.Procs {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(order, rest...)
}

// allNames returns every array and scalar name, sorted.
func (a *Analysis) allNames() []string {
	var ns []string
	for n := range a.Prog.Arrays {
		ns = append(ns, n)
	}
	for n := range a.Prog.Scalars {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// refWalker walks statements collecting references with loop context.
type refWalker struct {
	prog      *prog.Prog
	ns        *NodeSummary
	loops     []LoopFrame
	condDepth int
	inCrit    bool
	inOrdered bool
	doallVar  string
	doallLo   symexpr.Expr
	doallHi   symexpr.Expr
	seq       int
}

func (w *refWalker) loopVarSet() map[string]bool {
	s := make(map[string]bool, len(w.loops)+1)
	for _, f := range w.loops {
		s[f.Var] = true
	}
	if w.doallVar != "" {
		s[w.doallVar] = true
	}
	return s
}

func (w *refWalker) stmt(s pfl.Stmt) {
	switch st := s.(type) {
	case *pfl.AssignStmt:
		w.expr(st.RHS, false)
		// Subscripts of the LHS are reads; the element itself is a write.
		if ir, ok := st.LHS.(*pfl.IndexRef); ok {
			for _, sub := range ir.Subs {
				w.expr(sub, false)
			}
		}
		w.expr(st.LHS, true)
	case *pfl.ForStmt:
		vars := w.loopVarSet()
		lo := w.prog.Affine(st.Lo, vars)
		hi := w.prog.Affine(st.Hi, vars)
		w.expr(st.Lo, false)
		w.expr(st.Hi, false)
		if st.Step != nil {
			w.expr(st.Step, false)
		}
		step := int64(1)
		if st.Step != nil {
			if c, ok := w.prog.Affine(st.Step, vars).IsConst(); ok {
				step = c
			} else {
				step = 0 // unknown step
			}
		}
		frame := LoopFrame{Var: st.Var, Lo: lo, Hi: hi, NonEmpty: loopNonEmpty(lo, hi, step), Stmt: st}
		if step < 0 {
			// Decreasing loop: index set is [hi, lo] in section terms.
			frame.Lo, frame.Hi = hi, lo
		}
		w.loops = append(w.loops, frame)
		for _, bs := range st.Body.Stmts {
			w.stmt(bs)
		}
		w.loops = w.loops[:len(w.loops)-1]
	case *pfl.IfStmt:
		w.expr(st.Cond, false)
		w.condDepth++
		for _, bs := range st.Then.Stmts {
			w.stmt(bs)
		}
		if st.Else != nil {
			for _, bs := range st.Else.Stmts {
				w.stmt(bs)
			}
		}
		w.condDepth--
	case *pfl.CriticalStmt:
		w.inCrit = true
		for _, bs := range st.Body.Stmts {
			w.stmt(bs)
		}
		w.inCrit = false
	case *pfl.OrderedStmt:
		w.inOrdered = true
		for _, bs := range st.Body.Stmts {
			w.stmt(bs)
		}
		w.inOrdered = false
	case *pfl.DoallStmt, *pfl.CallStmt:
		// Cannot appear inside a node payload (checker + EFG builder).
		panic("sections: boundary statement inside node payload")
	}
}

func loopNonEmpty(lo, hi symexpr.Expr, step int64) bool {
	if step == 0 {
		return false // unknown step: cannot prove the loop runs
	}
	d := hi.Sub(lo)
	b := d.BoundsOf(nil)
	if !b.Known {
		return false
	}
	if step > 0 {
		return b.Lo >= 0
	}
	return b.Hi <= 0
}

// expr walks an expression; write marks the top-level reference a write.
func (w *refWalker) expr(e pfl.Expr, write bool) {
	switch ex := e.(type) {
	case *pfl.NumLit:
	case *pfl.VarRef:
		if ex.RefID < 0 {
			return // param or loop index: register value
		}
		w.emit(&Ref{
			RefID:    ex.RefID,
			Array:    ex.Name,
			IsScalar: true,
			Write:    write,
			Pos:      ex.Pos,
		})
	case *pfl.IndexRef:
		if !write {
			for _, sub := range ex.Subs {
				w.expr(sub, false)
			}
		}
		vars := w.loopVarSet()
		subs := make([]symexpr.Expr, len(ex.Subs))
		for i, sub := range ex.Subs {
			subs[i] = w.prog.Affine(sub, vars)
		}
		w.emit(&Ref{
			RefID: ex.RefID,
			Array: ex.Name,
			Write: write,
			Subs:  subs,
			Pos:   ex.Pos,
		})
	case *pfl.BinExpr:
		w.expr(ex.X, false)
		w.expr(ex.Y, false)
	case *pfl.UnExpr:
		w.expr(ex.X, false)
	case *pfl.CallExpr:
		for _, a := range ex.Args {
			w.expr(a, false)
		}
	}
}

func (w *refWalker) emit(r *Ref) {
	r.Seq = w.seq
	w.seq++
	r.CondDepth = w.condDepth
	r.InCritical = w.inCrit
	r.InOrdered = w.inOrdered
	r.Loops = append([]LoopFrame(nil), w.loops...)
	r.DoallVar = w.doallVar
	r.DoallLo = w.doallLo
	r.DoallHi = w.doallHi
	w.ns.Refs = append(w.ns.Refs, r)
}

// Report renders the analysis results per procedure: per-epoch MOD/USE
// sections, procedure summaries, and entry freshness — the compiler
// introspection output behind tpicc -sections.
func (a *Analysis) Report() string {
	var b strings.Builder
	names := make([]string, 0, len(a.Procs))
	for n := range a.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := a.Procs[name]
		fmt.Fprintf(&b, "proc %s:\n", name)
		for _, ns := range ps.Nodes {
			if len(ns.Mod) == 0 && len(ns.Use) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  epoch n%d (%s):\n", ns.Node.ID, ns.Node.Kind)
			for _, arr := range ns.Mod.Names() {
				fmt.Fprintf(&b, "    MOD %s%s\n", arr, ns.Mod[arr])
			}
			for _, arr := range ns.Use.Names() {
				fmt.Fprintf(&b, "    USE %s%s\n", arr, ns.Use[arr])
			}
		}
		for _, arr := range ps.GMod.Names() {
			fmt.Fprintf(&b, "  GMOD %s%s\n", arr, ps.GMod[arr])
		}
		for _, arr := range ps.GUse.Names() {
			fmt.Fprintf(&b, "  GUSE %s%s\n", arr, ps.GUse[arr])
		}
		var fresh []string
		for v := range ps.EntryFresh {
			fresh = append(fresh, v)
		}
		sort.Strings(fresh)
		for _, v := range fresh {
			f := ps.EntryFresh[v]
			if f >= Infinity {
				fmt.Fprintf(&b, "  entry-fresh %s = never-written\n", v)
			} else {
				fmt.Fprintf(&b, "  entry-fresh %s = %d epochs\n", v, f)
			}
		}
	}
	return b.String()
}
