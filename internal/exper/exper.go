// Package exper is the experiment harness: one entry per table or figure
// of the paper's evaluation plus the documented extensions (DESIGN.md's
// experiment index, E1–E26). Each experiment returns a Table that
// cmd/experiments prints (text or markdown) and that the root-level
// benchmarks assert shape properties on.
package exper

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Suite bundles the workload size and machine baseline for a run of the
// experiments. Simulation runs are independent, so experiments fan their
// parameter points out across the CPUs (each point gets a fresh memory
// system; only the compile cache is shared, under a mutex).
type Suite struct {
	Params  bench.Params
	Procs   int
	HostPar int // host goroutines per DOALL epoch; 0/1 = sequential
	// NoFastPath disables the affine reference-stream fast path
	// (machine.Config.FastPath) for every run of the suite. Results are
	// bit-identical either way; this is the experiments-level kill
	// switch and the off-arm of the CI equivalence check.
	NoFastPath bool
	// Exec, when set, replaces local in-process simulation for every
	// named-kernel (kernel, config) point the tables run — the
	// distributed sweep (internal/sweep) plugs its fleet executor in
	// here to shard a table's points across tpiserved workers. The
	// executor must return the stats a local core.Run of the same point
	// would (the svc result-fidelity contract plus stats.Snapshot's
	// lossless Restore guarantee exactly that), which keeps the rendered
	// table bytes identical either way. The few points that compile
	// custom inline sources (E21's auto-parallelized variants, E23's
	// ping-pong probe) always run locally.
	Exec    func(kernel string, cfg machine.Config) (*stats.Stats, error)
	mu      sync.Mutex
	kernels map[string]*core.Compiled // cache, keyed by name+options
}

// NewSuite builds a suite; procs <= 0 selects the paper default (16).
func NewSuite(p bench.Params, procs int) *Suite {
	if procs <= 0 {
		procs = 16
	}
	return &Suite{Params: p, Procs: procs, kernels: map[string]*core.Compiled{}}
}

// compile returns the (cached) compiled form of a kernel.
func (s *Suite) compile(name string, opts core.CompileOptions) (*core.Compiled, error) {
	key := fmt.Sprintf("%s/%+v", name, opts)
	s.mu.Lock()
	if c, ok := s.kernels[key]; ok {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	k, err := bench.Get(name, s.Params)
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(k.Source, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.kernels[key] = c
	s.mu.Unlock()
	return c, nil
}

// forEach runs fn over the cross product of items in parallel, preserving
// input order in the returned row groups. fn returns the rows for one
// item.
func forEach[T any](items []T, fn func(T) ([][]string, error)) ([][]string, error) {
	type result struct {
		rows [][]string
		err  error
	}
	results := make([]result, len(items))
	var wg sync.WaitGroup
	// Acquire before spawning: a large cross product keeps at most
	// GOMAXPROCS goroutines alive instead of one per item up front.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, it := range items {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, it T) {
			defer wg.Done()
			defer func() { <-sem }()
			rows, err := fn(it)
			results[i] = result{rows, err}
		}(i, it)
	}
	wg.Wait()
	var out [][]string
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.rows...)
	}
	return out, nil
}

// cfg builds the default machine config for a scheme at this suite size.
func (s *Suite) cfg(scheme machine.Scheme) machine.Config {
	c := machine.Default(scheme)
	c.Procs = s.Procs
	c.HostParallel = s.HostPar
	c.FastPath = !s.NoFastPath
	return c
}

// run compiles (default options) and simulates one kernel under cfg —
// or hands the point to the pluggable executor when one is set.
func (s *Suite) run(name string, cfg machine.Config) (*stats.Stats, error) {
	if s.Exec != nil {
		return s.Exec(name, cfg)
	}
	opts := core.CompileOptions{
		Interproc:      cfg.Interproc,
		FirstReadReuse: cfg.FirstReadReuse,
		AlignWords:     int64(cfg.LineWords),
	}
	c, err := s.compile(name, opts)
	if err != nil {
		return nil, err
	}
	return core.Run(c, cfg)
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func d(v int64) string     { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Markdown renders the table as GitHub-flavored markdown (for committing
// regenerated results into EXPERIMENTS-style documents).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}
