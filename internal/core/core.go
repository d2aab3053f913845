// Package core is the library's public entry point: it ties the compiler
// pipeline (parse → check → epoch flow graphs → section analysis →
// reference marking) to the machine model and the execution-driven
// simulator, and provides the scheme factory used by the benchmarks,
// examples, and command-line tools.
//
// Typical use:
//
//	c, err := core.Compile(src, core.DefaultCompileOptions())
//	cfg := machine.Default(machine.SchemeTPI)
//	st, err := core.Run(c, cfg)
//	fmt.Println(st)
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"repro/internal/machine"
	"repro/internal/marking"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/sections"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/swschemes"
	"repro/internal/tardis"
	"repro/internal/tpi"
	"repro/internal/vc"

	hwdir "repro/internal/directory"
)

// CompileOptions configures the compiler pipeline.
type CompileOptions struct {
	// Interproc enables interprocedural section analysis and entry
	// freshness (on by default; the off state is the paper's ablation).
	Interproc bool
	// FirstReadReuse enables the intra-task reuse (first-read) analysis.
	FirstReadReuse bool
	// AlignWords is the array alignment in words (use the line size).
	AlignWords int64
	// PadScalars places every scalar on its own cache line instead of
	// packing them: the classic false-sharing mitigation (ablation E24).
	PadScalars bool
}

// DefaultCompileOptions enables all analyses with 4-word alignment.
func DefaultCompileOptions() CompileOptions {
	return CompileOptions{Interproc: true, FirstReadReuse: true, AlignWords: 4}
}

// Compiled is a fully analyzed, executable program.
//
// It has two parts. The front end — AST, Info, Analysis and Marks — comes
// from parsing, checking, section analysis and marking, and does not
// depend on where globals sit in memory: the analysis reads only the
// program's parameters, names and shapes. The layout — Prog, built for
// one AlignWords and PadScalars — fixes every address, and the lowered
// closure IR is built from it. Relayout gives the same front end another
// layout without analysing again.
//
// A Compiled is immutable after Compile or Relayout returns: every field
// is written once and only read afterwards, and the lazily-lowered
// closure IR is guarded by a sync.Once. One Compiled may therefore be
// shared freely across concurrent runs — the contract the exper sweep
// executor and the svc compile cache depend on (see TestConcurrentRun) —
// and one front end may be relayouted and lowered at several layouts at
// once.
type Compiled struct {
	Source   string
	AST      *pfl.Program
	Info     *pfl.Info
	Prog     *prog.Prog
	Analysis *sections.Analysis
	Marks    *marking.Result

	// Key is the content address of this compilation: hex
	// sha256(source, canonical CompileOptions), set by Compile. Equal
	// keys mean byte-equal source compiled under equivalent options, so
	// Key is a safe cache/dedup identity for the compile artifact.
	Key string

	opts CompileOptions // canonical: AlignWords > 0

	lowerOnce sync.Once
	lowered   *sim.Program
	lowerErr  error
}

// canonical applies Compile's defaults: AlignWords <= 0 means 4.
func (o CompileOptions) canonical() CompileOptions {
	if o.AlignWords <= 0 {
		o.AlignWords = 4
	}
	return o
}

// CompileKey is the content address Compile assigns to (src, opts)
// without running the pipeline: cache lookups hash first and compile
// only on miss. Options are canonicalized (AlignWords <= 0 means 4, as
// Compile applies) so equivalent spellings collide.
func CompileKey(src string, opts CompileOptions) string {
	opts = opts.canonical()
	return contentKey(src, fmt.Sprintf("interproc=%t firstread=%t align=%d pad=%t",
		opts.Interproc, opts.FirstReadReuse, opts.AlignWords, opts.PadScalars))
}

// AnalysisKey is the content address of Compile's front end for (src,
// opts): CompileKey without the layout options AlignWords and
// PadScalars, which the analysis and the marks do not depend on. Every
// layout of one AnalysisKey may be built by Relayout from any other.
func AnalysisKey(src string, opts CompileOptions) string {
	return contentKey(src, fmt.Sprintf("interproc=%t firstread=%t",
		opts.Interproc, opts.FirstReadReuse))
}

// contentKey hashes an options header and the source it applies to.
func contentKey(src, header string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", header, len(src))
	io.WriteString(h, src)
	return hex.EncodeToString(h.Sum(nil))
}

// Lowered returns the program's slot-addressed closure IR, lowering on
// first use and caching the result (safe for concurrent runs, e.g. the
// exper sweep executor sharing one Compiled across goroutines).
func (c *Compiled) Lowered() (*sim.Program, error) {
	c.lowerOnce.Do(func() {
		c.lowered, c.lowerErr = sim.Lower(c.Prog, c.Marks)
	})
	return c.lowered, c.lowerErr
}

// Compile runs the whole compiler pipeline on PFL source: the front end
// (parse, check, section analysis, marking) over the layout that
// opts.AlignWords and opts.PadScalars select. Lowering waits for the
// first run (see Lowered).
func Compile(src string, opts CompileOptions) (*Compiled, error) {
	opts = opts.canonical()
	ast, err := pfl.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := pfl.Check(ast)
	if err != nil {
		return nil, err
	}
	p, err := prog.BuildPadded(info, opts.AlignWords, opts.PadScalars)
	if err != nil {
		return nil, err
	}
	a := sections.Analyze(p, sections.Options{Interproc: opts.Interproc})
	m := marking.Compute(a, marking.Options{FirstReadReuse: opts.FirstReadReuse})
	return &Compiled{Source: src, AST: ast, Info: info, Prog: p, Analysis: a, Marks: m,
		Key: CompileKey(src, opts), opts: opts}, nil
}

// Relayout returns c's program at the layout opts selects, sharing c's
// front end (AST, Info, Analysis, Marks) instead of analysing again; the
// result has its own Prog, Key and lowering. The analysis options must
// match c's — marks computed under one Interproc or FirstReadReuse
// setting are not the marks of another — or Relayout returns an error.
func (c *Compiled) Relayout(opts CompileOptions) (*Compiled, error) {
	opts = opts.canonical()
	if opts.Interproc != c.opts.Interproc || opts.FirstReadReuse != c.opts.FirstReadReuse {
		return nil, fmt.Errorf("core: relayout from interproc=%t firstread=%t to interproc=%t firstread=%t needs a new analysis",
			c.opts.Interproc, c.opts.FirstReadReuse, opts.Interproc, opts.FirstReadReuse)
	}
	p, err := prog.BuildPadded(c.Info, opts.AlignWords, opts.PadScalars)
	if err != nil {
		return nil, err
	}
	return &Compiled{Source: c.Source, AST: c.AST, Info: c.Info, Prog: p, Analysis: c.Analysis, Marks: c.Marks,
		Key: CompileKey(c.Source, opts), opts: opts}, nil
}

// CompileForConfig compiles with the analysis toggles and alignment that
// a machine configuration implies.
func CompileForConfig(src string, cfg machine.Config) (*Compiled, error) {
	return Compile(src, CompileOptions{
		Interproc:      cfg.Interproc,
		FirstReadReuse: cfg.FirstReadReuse,
		AlignWords:     int64(cfg.LineWords),
	})
}

// NewSystem builds the memory system for cfg.Scheme over a program's
// memory layout.
func NewSystem(cfg machine.Config, p *prog.Prog) (memsys.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Scheme {
	case machine.SchemeBase:
		return swschemes.NewBase(cfg, p.MemWords), nil
	case machine.SchemeSC:
		return swschemes.NewSC(cfg, p.MemWords), nil
	case machine.SchemeTPI:
		if cfg.L1Words > 0 {
			return tpi.NewTwoLevel(cfg, p.MemWords), nil
		}
		return tpi.New(cfg, p.MemWords), nil
	case machine.SchemeHW:
		return hwdir.New(cfg, p.MemWords), nil
	case machine.SchemeVC:
		return vc.New(cfg, p), nil
	case machine.SchemeTardis, machine.SchemeTardis2:
		return tardis.New(cfg, p.MemWords), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", cfg.Scheme)
	}
}

// The scheme contract, checked at compile time: every variant NewSystem
// builds (TARDIS and TARDIS2 share one type) and the Oracle is a whole
// memsys.System, release included; VC alone tracks variable versions.
var (
	_ memsys.System = (*swschemes.Base)(nil)
	_ memsys.System = (*swschemes.SC)(nil)
	_ memsys.System = (*tpi.System)(nil)
	_ memsys.System = (*tpi.TwoLevel)(nil)
	_ memsys.System = (*hwdir.System)(nil)
	_ memsys.System = (*vc.System)(nil)
	_ memsys.System = (*tardis.System)(nil)
	_ memsys.System = (*memsys.Oracle)(nil)

	_ memsys.Versioned = (*vc.System)(nil)
)

// RunOptions carries the optional per-run controls of RunWithOptions.
// The zero value is a plain Run: statistics only.
type RunOptions struct {
	// Ctx, when non-nil, aborts the run at the next epoch barrier once
	// the context is cancelled or past its deadline: the run returns an
	// error wrapping ctx.Err() (errors.Is-able against context.Canceled
	// and context.DeadlineExceeded) and the system's pooled caches are
	// still released. Epoch barriers are the natural abort point — no
	// task is mid-reference, so the memory system is consistent.
	Ctx context.Context

	// Progress, when non-nil, receives run-progress snapshots sampled
	// at epoch barriers — at most one per ProgressEvery epochs, plus a
	// final Done snapshot when the run completes or aborts. The
	// callback runs on the simulating goroutine between epochs: keep it
	// to atomic updates or non-blocking sends. Sampling never touches
	// the per-reference hot path, so statistics are bit-identical with
	// or without a callback.
	Progress sim.ProgressFunc
	// ProgressEvery is the epoch stride between Progress samples
	// (minimum and default 1).
	ProgressEvery int64

	// Obs attaches the instrumentation layer at this level and returns
	// its attributed report in Result.Report.
	Obs obs.Level
	// Trace, when non-nil, receives the binary event trace (see package
	// obs for the format and decoder); it implies Obs = obs.LevelTrace.
	Trace io.Writer

	// AuditFastPath tracks every site that left the stream or
	// host-parallel fast path and reports it in Result.FastPath. Tracking
	// costs one predictable branch per fallback, so the statistics are
	// identical to an untracked run's.
	AuditFastPath bool
	// Memory returns the final memory image in Result.Memory.
	Memory bool
	// Verify compares the final memory image bit-for-bit with the
	// sequential oracle's; a mismatch is an error naming the first
	// differing word.
	Verify bool
}

// Result is what one run returns; fields beyond Stats are set only when
// the matching RunOptions field asks for them.
type Result struct {
	Stats    *stats.Stats
	Report   *obs.Report
	Memory   []float64
	FastPath *FastPathStatus
}

// Run simulates the compiled program on a fresh memory system for cfg and
// returns the run statistics.
func Run(c *Compiled, cfg machine.Config) (*stats.Stats, error) {
	res, err := RunWithOptions(c, cfg, RunOptions{})
	return res.Stats, err
}

// VerifyAgainstOracle is Run checked against the sequential oracle (see
// RunOptions.Verify).
func VerifyAgainstOracle(c *Compiled, cfg machine.Config) (*stats.Stats, error) {
	res, err := RunWithOptions(c, cfg, RunOptions{Verify: true})
	return res.Stats, err
}

// RunWithOptions simulates the compiled program on a fresh memory system
// for cfg, with the per-run controls and outputs opts selects.
func RunWithOptions(c *Compiled, cfg machine.Config, opts RunOptions) (Result, error) {
	sys, err := NewSystem(cfg, c.Prog)
	if err != nil {
		return Result{}, err
	}
	return execute(c, sys, cfg, opts)
}

// execute is the one run body: it runs c on sys (see simulate) and
// releases sys on every path — lowering, a runtime fault inside the
// simulation, a cancelled context, a failed invariant check or oracle
// compare — so an aborted run never leaks pool capacity (and never
// poisons it: pooled structures are reset to the fresh-construction
// state on reacquire).
func execute(c *Compiled, sys memsys.System, cfg machine.Config, opts RunOptions) (Result, error) {
	defer sys.ReleaseCaches()
	return simulate(c, sys, cfg, opts)
}

// simulate runs c on sys, checks the scheme's protocol invariants, and
// extracts what opts asks for. It leaves sys unreleased, so the caller
// can still read its final memory.
func simulate(c *Compiled, sys memsys.System, cfg machine.Config, opts RunOptions) (Result, error) {
	lp, err := c.Lowered()
	if err != nil {
		return Result{}, err
	}
	r := sim.NewLowered(lp, sys, cfg)
	var rec *obs.Recorder
	if opts.Obs != obs.LevelOff || opts.Trace != nil {
		if rec, err = obs.NewRecorder(opts.Obs, BuildObsMeta(c, cfg), opts.Trace); err != nil {
			return Result{}, err
		}
		r.SetObserver(rec)
		sys.SetProbe(rec)
	}
	if opts.Ctx != nil {
		r.SetContext(opts.Ctx)
	}
	if opts.Progress != nil {
		r.SetProgress(opts.Progress, opts.ProgressEvery)
	}
	if opts.AuditFastPath {
		r.EnableFastPathTracking()
	}
	st, err := r.Run()
	if err != nil {
		return Result{}, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return Result{}, err
	}
	if opts.Verify {
		if err := verify(opts.Ctx, c, sys, cfg); err != nil {
			return Result{}, err
		}
	}
	res := Result{Stats: st}
	if opts.AuditFastPath {
		res.FastPath = &FastPathStatus{StreamDiags: lp.StreamDiags(), Misses: r.FastPathMisses()}
	}
	if opts.Memory {
		res.Memory = sys.Mem().Snapshot()
	}
	if rec != nil {
		res.Report, err = rec.Finish(st)
	}
	return res, err
}

// oracle builds the sequential reference system for c and the
// configuration it runs under: one processor, pinned to the sequential
// scalar path — no stream cursors, no host parallelism — so
// verification checks the fast paths against an execution that uses
// neither.
func oracle(c *Compiled) (memsys.System, machine.Config) {
	cfg := machine.Default(machine.SchemeBase)
	cfg.Procs = 1
	cfg.FastPath = false
	cfg.HostParallel = 0
	return memsys.NewOracle(cfg, c.Prog.MemWords), cfg
}

// verify runs the oracle, under ctx when it is non-nil, and compares its
// final memory with sys's in place.
func verify(ctx context.Context, c *Compiled, sys memsys.System, cfg machine.Config) error {
	osys, ocfg := oracle(c)
	defer osys.ReleaseCaches()
	if _, err := simulate(c, osys, ocfg, RunOptions{Ctx: ctx}); err != nil {
		return fmt.Errorf("core: oracle run failed: %w", err)
	}
	got, want := sys.Mem().Words(), osys.Mem().Words()
	for i := int64(0); i < c.Prog.MemWords; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("core: %s result diverges from sequential oracle at word %d: got %v, want %v",
				cfg.Scheme, i, got[i], want[i])
		}
	}
	return nil
}

// FastPathStatus reports, for one run, every site that left the fast
// paths: the static per-loop stream recognition verdicts (scheme- and
// run-independent) and the deduplicated runtime fallbacks (recognized
// loops that executed scalar, DOALL epochs that executed sequentially
// while host parallelism was requested).
type FastPathStatus struct {
	StreamDiags []sim.StreamDiag
	Misses      []sim.FastPathMiss
}

// Clean reports whether the run stayed on the fast paths everywhere it
// could: no recognized stream loop fell back to the scalar path at
// runtime, and no shardable DOALL epoch fell back to sequential
// dispatch while host parallelism was requested. Structural
// non-candidates — loops the recognizer rejected (a non-OK StreamDiag)
// and seqOnly doalls — don't count against cleanliness; they can never
// take the fast paths under any configuration.
func (f *FastPathStatus) Clean() bool { return len(f.Misses) == 0 }
