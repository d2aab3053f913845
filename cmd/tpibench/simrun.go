package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// cell is one (kernel, N, variant) of a simulation workload.
type cell struct {
	label string
	cfg   machine.Config
	ref   [32]byte // stats digest of the sequential-scalar reference run
	bad   string   // why the cell failed its set-up checks; "" when sound
}

// simBench holds a simulation workload's compiled programs and cells.
type simBench struct {
	spec    simSpec
	sources [][]*core.Compiled // [kernel][n]
	cells   [][][]*cell        // [kernel][n][variant]
}

func cellLabel(spec simSpec, quick bool, kernel string, n int, v variant) string {
	w := spec.name
	if quick {
		w = "quick/" + w
	}
	return fmt.Sprintf("%s/%s/n%d/%s", w, kernel, n, v.name)
}

func newSimBench(spec simSpec, quick bool) *simBench {
	b := &simBench{spec: spec, cells: make([][][]*cell, len(spec.kernels))}
	for k, kn := range spec.kernels {
		b.cells[k] = make([][]*cell, len(spec.ns))
		for ni, n := range spec.ns {
			for _, v := range spec.variants {
				b.cells[k][ni] = append(b.cells[k][ni], &cell{label: cellLabel(spec, quick, kn, n, v), cfg: v.cfg})
			}
		}
	}
	return b
}

// setup compiles and lowers every source, then runs one warm-up pass:
// every kernel under every variant at the middle N. It is the work a
// user of the simulator pays before the first measured run.
func (b *simBench) setup() (time.Duration, error) {
	t0 := time.Now()
	b.sources = make([][]*core.Compiled, len(b.spec.kernels))
	for k, kn := range b.spec.kernels {
		for _, n := range b.spec.ns {
			kern, err := bench.Get(kn, bench.Params{N: n, Steps: b.spec.steps})
			if err != nil {
				return 0, err
			}
			c, err := core.Compile(kern.Source, core.DefaultCompileOptions())
			if err != nil {
				return 0, fmt.Errorf("compile %s n=%d: %w", kn, n, err)
			}
			if _, err := c.Lowered(); err != nil {
				return 0, fmt.Errorf("lower %s n=%d: %w", kn, n, err)
			}
			b.sources[k] = append(b.sources[k], c)
		}
	}
	mid := len(b.spec.ns) / 2
	for k := range b.spec.kernels {
		for _, c := range b.cells[k][mid] {
			if _, err := core.Run(b.sources[k][mid], c.cfg); err != nil {
				return 0, fmt.Errorf("warm-up %s: %w", c.label, err)
			}
		}
	}
	return time.Since(t0), nil
}

// digest is the sha256 of a run's stats.Snapshot JSON: every simulated
// output (cycles, misses, traffic) in one comparable value.
func digest(st *stats.Stats) [32]byte {
	h := sha256.New()
	json.NewEncoder(h).Encode(st.Snapshot()) //nolint:errcheck // a Snapshot always encodes and a hash never fails
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// referenceDigest verifies one cell against the sequential oracle and
// returns the stats digest of its sequential-scalar run (fast path and
// host parallelism off), which every timed op of the cell must match.
func referenceDigest(c *core.Compiled, cfg machine.Config) ([32]byte, error) {
	st, err := core.VerifyAgainstOracle(c, cfg)
	if err != nil {
		return [32]byte{}, err
	}
	scalar := cfg
	scalar.FastPath = false
	scalar.HostParallel = 0
	ref, err := core.Run(c, scalar)
	if err != nil {
		return [32]byte{}, fmt.Errorf("scalar reference run: %w", err)
	}
	d := digest(ref)
	if digest(st) != d {
		return d, fmt.Errorf("stats differ from the sequential-scalar reference")
	}
	return d, nil
}

// verify checks every cell once, untimed: the oracle, the scalar
// reference and the committed golden digest. A cell that fails any of
// them marks its ops failed.
func (b *simBench) verify(golden map[string]string) {
	for k := range b.spec.kernels {
		for ni := range b.spec.ns {
			for _, c := range b.cells[k][ni] {
				d, err := referenceDigest(b.sources[k][ni], c.cfg)
				c.ref = d
				want, ok := golden[c.label]
				switch {
				case err != nil:
					c.bad = err.Error()
				case !ok:
					c.bad = "no golden digest for this cell (regenerate with -update-golden)"
				case want != hex.EncodeToString(d[:]):
					c.bad = "stats digest differs from the golden digest"
				}
			}
		}
	}
}

// runSim runs a simulation workload: set-up (repeated spec.setupReps
// times; setup_s is the median), untimed verification, then the timed
// phase. With opts.trace it runs an untraced phase and a traced phase
// and reports the per-layer metrics.
func runSim(spec simSpec, opts options, stdout, stderr io.Writer) (result, error) {
	b := newSimBench(spec, opts.quick)
	var setups []time.Duration
	for i := 0; i < spec.setupReps; i++ {
		d, err := b.setup()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d)
	}
	b.verify(opts.golden)

	if opts.trace == "" {
		m := b.measure(opts.seed, spec.blocks, nil, nil, stderr)
		return report(stdout, spec.name, endToEnd, m.endToEndMetrics(setups), m), nil
	}

	// The traced run splits its blocks between an untraced phase, which
	// gives the go.* metrics and the baseline of the tracing overhead,
	// and a traced phase.
	half := max(1, spec.blocks/2)
	plain := b.measure(opts.seed, half, nil, nil, stderr)
	tr := newTracer()
	agg := &layerAgg{}
	for k, kn := range spec.kernels {
		for ni, n := range spec.ns {
			kern, err := bench.Get(kn, bench.Params{N: n, Steps: spec.steps})
			if err != nil {
				return result{}, err
			}
			meds, err := tr.traceCompile(kern.Source, core.DefaultCompileOptions().AlignWords, -1-(k*len(spec.ns)+ni))
			if err != nil {
				return result{}, err
			}
			agg.addCompile(meds)
		}
	}
	traced := b.measure(opts.seed, half, tr, agg, stderr)
	vals := make(map[string]float64)
	agg.metrics(tr, vals)
	plain.goMetrics(vals)
	traced.failed += plain.failed
	traced.attempted += plain.attempted
	res := report(stdout, spec.name, perLayer, vals, traced)
	printOverhead(stdout, spec.name, "ns_per_ref", plain.nsPerRef, traced.nsPerRef, false)
	if err := tr.write(opts.trace, spec.name, opts.seed); err != nil {
		return result{}, err
	}
	return res, nil
}

// printOverhead prints how much slower the traced phase ran than the
// untraced one, judged by metric (a rate when higherBetter).
func printOverhead(w io.Writer, workload, metric string, plain, traced float64, higherBetter bool) {
	slowdown := ratio(traced, plain)
	if higherBetter {
		slowdown = ratio(plain, traced)
	}
	fmt.Fprintf(w, "%s trace_overhead %.3g%% (%s untraced %.6g, traced %.6g)\n",
		workload, 100*(slowdown-1), metric, plain, traced)
}

// measure runs the given number of blocks of passes. tr == nil runs each
// op as one core.Run call; otherwise the op runs through its public
// pieces with spans.
//
// ns_per_ref takes, per cell, the fastest of its repeats (blocks of
// them): Σ best wall ÷ Σ references. On a shared host, other tenants
// slow stretches of several seconds by up to 60%; the fastest repeat of
// each cell is what the code costs when nothing interferes, and it
// varies between runs a third to three fifths as much as the median
// over passes does.
func (b *simBench) measure(seed uint64, blocks int, tr *tracer, agg *layerAgg, stderr io.Writer) *measure {
	m := &measure{}
	best := make(map[*cell]time.Duration)
	refs := make(map[*cell]int64)
	rng := seededRand(seed, b.spec.name)
	m.begin()
	for block := 0; block < blocks; block++ {
		for _, pass := range b.spec.schedule(rng) {
			for _, o := range pass {
				c := b.cells[o.kernel][o.n][o.variant]
				prog := b.sources[o.kernel][o.n]
				op := m.attempted
				m.attempted++
				t0 := time.Now()
				var (
					st  *stats.Stats
					ot  opTrace
					err error
				)
				if tr == nil {
					st, err = core.Run(prog, c.cfg)
				} else {
					st, ot, err = tr.tracedRun(prog, c.cfg, op)
				}
				d := time.Since(t0)
				switch {
				case err != nil:
					m.fail(stderr, "%s: %v", c.label, err)
					continue
				case c.bad != "":
					m.fail(stderr, "%s: %s", c.label, c.bad)
				case digest(st) != c.ref:
					m.fail(stderr, "%s: stats digest differs from the reference run", c.label)
				}
				if agg != nil {
					agg.addOp(st, ot)
				}
				m.opMS = append(m.opMS, float64(d)/float64(time.Millisecond))
				if bd, ok := best[c]; !ok || d < bd {
					best[c] = d
				}
				refs[c] = st.Reads + st.Writes
			}
		}
	}
	m.end()
	var wall, n float64
	for c, d := range best {
		wall += float64(d)
		n += float64(refs[c])
	}
	m.nsPerRef = ratio(wall, n)
	return m
}
