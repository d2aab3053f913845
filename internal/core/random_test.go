package core

// Randomized whole-pipeline property test: generate random — but
// DOALL-independent by construction — PFL programs and demand that every
// coherence scheme produces results bit-identical to the sequential
// oracle under a variety of machine configurations. This exercises the
// parser, checker, epoch graphs, section analysis, marking, all four
// memory systems, and the simulator against each other.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
)

// progGen builds random PFL programs whose DOALLs are independent by
// construction: inside a doall over i, writes target subscript [i] (or
// [i][j] for an inner serial loop), and reads of any array written in
// the same doall use exactly the written subscript.
type progGen struct {
	r       *rand.Rand
	n       int
	arrays  []genArray
	scalars []string
	b       strings.Builder
}

type genArray struct {
	name string
	rank int
}

func newProgGen(seed int64) *progGen {
	g := &progGen{r: rand.New(rand.NewSource(seed)), n: 16}
	na := 3 + g.r.Intn(3)
	for i := 0; i < na; i++ {
		g.arrays = append(g.arrays, genArray{
			name: fmt.Sprintf("A%d", i),
			rank: 1 + g.r.Intn(2),
		})
	}
	ns := 1 + g.r.Intn(2)
	for i := 0; i < ns; i++ {
		g.scalars = append(g.scalars, fmt.Sprintf("s%d", i))
	}
	return g
}

func (g *progGen) pick() genArray { return g.arrays[g.r.Intn(len(g.arrays))] }

// subscript for a READ of an array not written in this doall.
func (g *progGen) freeSub(loopVar string) string {
	switch g.r.Intn(5) {
	case 0:
		return loopVar
	case 1:
		return fmt.Sprintf("(%s + 1) %% n", loopVar)
	case 2:
		return fmt.Sprintf("n - 1 - %s", loopVar)
	case 3:
		return fmt.Sprintf("%d", g.r.Intn(g.n))
	default:
		return fmt.Sprintf("(%s * %d) %% n", loopVar, 1+g.r.Intn(4))
	}
}

// readRef renders a read of array a; if selfOnly, the subscripts must be
// exactly the written ones (idx).
func (g *progGen) readRef(a genArray, idx []string, selfOnly bool, loopVars []string) string {
	subs := make([]string, a.rank)
	for d := 0; d < a.rank; d++ {
		if selfOnly {
			subs[d] = idx[d]
		} else {
			subs[d] = g.freeSub(loopVars[g.r.Intn(len(loopVars))])
		}
	}
	return a.name + "[" + strings.Join(subs, "][") + "]"
}

// expr renders a RHS over the given readable terms.
func (g *progGen) expr(terms []string) string {
	t := terms[g.r.Intn(len(terms))]
	for i := 0; i < g.r.Intn(3); i++ {
		op := []string{"+", "-", "*"}[g.r.Intn(3)]
		u := terms[g.r.Intn(len(terms))]
		if op == "*" {
			// keep magnitudes bounded
			u = fmt.Sprintf("%.2f", 0.25+g.r.Float64()*0.5)
		}
		t = fmt.Sprintf("(%s %s %s)", t, op, u)
	}
	// occasionally wrap in a bounded intrinsic
	switch g.r.Intn(6) {
	case 0:
		t = fmt.Sprintf("sin(%s)", t)
	case 1:
		t = fmt.Sprintf("min(%s, 8.0)", t)
	case 2:
		t = fmt.Sprintf("abs(%s)", t)
	}
	return t
}

// doall emits one parallel epoch.
func (g *progGen) doall(depth int) {
	target := g.pick()
	loopVars := []string{"i"}
	idx := []string{"i"}
	inner := target.rank == 2
	if inner {
		loopVars = append(loopVars, "j")
		idx = append(idx, "j")
	}

	// readable terms: own element of target, any other arrays, literals
	var terms []string
	terms = append(terms, fmt.Sprintf("%.2f", g.r.Float64()*2))
	terms = append(terms, g.readRef(target, idx, true, loopVars))
	for _, a := range g.arrays {
		if a.name != target.name {
			terms = append(terms, g.readRef(a, nil, false, loopVars))
		}
	}

	fmt.Fprintf(&g.b, "%sdoall i = 0 to n-1 {\n", indent(depth))
	if inner {
		fmt.Fprintf(&g.b, "%sfor j = 0 to n-1 {\n", indent(depth+1))
		fmt.Fprintf(&g.b, "%s%s[i][j] = %s\n", indent(depth+2), target.name, g.expr(terms))
		fmt.Fprintf(&g.b, "%s}\n", indent(depth+1))
	} else {
		fmt.Fprintf(&g.b, "%s%s[i] = %s\n", indent(depth+1), target.name, g.expr(terms))
		if g.r.Intn(3) == 0 {
			fmt.Fprintf(&g.b, "%s%s[i] = %s[i] * 0.5\n", indent(depth+1), target.name, target.name)
		}
	}
	if g.r.Intn(3) == 0 {
		sc := g.scalars[g.r.Intn(len(g.scalars))]
		src := g.readRef(target, idx[:1], target.rank == 1, []string{"i"})
		if target.rank == 2 {
			src = target.name + "[i][0]"
		}
		kw := "critical"
		if g.r.Intn(2) == 0 {
			kw = "ordered"
		}
		fmt.Fprintf(&g.b, "%s%s {\n%s%s = %s + %s\n%s}\n",
			indent(depth+1), kw, indent(depth+2), sc, sc, src, indent(depth+1))
	}
	fmt.Fprintf(&g.b, "%s}\n", indent(depth))
}

// doacross emits a pipelined prefix epoch over a rank-1 array: iteration
// i's ordered section reads iteration i-1's result within the same epoch.
func (g *progGen) doacross(depth int) {
	var target genArray
	found := false
	for _, a := range g.arrays {
		if a.rank == 1 {
			target = a
			found = true
			break
		}
	}
	if !found {
		g.doall(depth)
		return
	}
	fmt.Fprintf(&g.b, "%sdoall i = 1 to n-1 {\n", indent(depth))
	fmt.Fprintf(&g.b, "%sordered {\n", indent(depth+1))
	fmt.Fprintf(&g.b, "%s%s[i] = %s[i-1] * 0.5 + %s[i] * 0.5 + %.2f\n",
		indent(depth+2), target.name, target.name, target.name, g.r.Float64())
	fmt.Fprintf(&g.b, "%s}\n", indent(depth+1))
	fmt.Fprintf(&g.b, "%s}\n", indent(depth))
}

// serialStmt emits a serial epoch statement.
func (g *progGen) serialStmt(depth int) {
	a := g.pick()
	subs := make([]string, a.rank)
	for d := range subs {
		subs[d] = fmt.Sprintf("%d", g.r.Intn(g.n))
	}
	lhs := a.name + "[" + strings.Join(subs, "][") + "]"
	rhs := fmt.Sprintf("%s + %.2f", lhs, g.r.Float64())
	if g.r.Intn(2) == 0 {
		sc := g.scalars[g.r.Intn(len(g.scalars))]
		rhs = fmt.Sprintf("%s * 0.9 + %.2f", sc, g.r.Float64())
		fmt.Fprintf(&g.b, "%s%s = %s\n", indent(depth), sc, rhs)
		return
	}
	fmt.Fprintf(&g.b, "%s%s = %s\n", indent(depth), lhs, rhs)
}

func indent(d int) string { return strings.Repeat("  ", d) }

// generate renders the whole program.
func (g *progGen) generate() string {
	g.b.Reset()
	fmt.Fprintf(&g.b, "program rnd\nparam n = %d\n", g.n)
	for _, s := range g.scalars {
		fmt.Fprintf(&g.b, "scalar %s = %.2f\n", s, g.r.Float64())
	}
	for _, a := range g.arrays {
		g.b.WriteString("array " + a.name)
		for d := 0; d < a.rank; d++ {
			g.b.WriteString("[n]")
		}
		g.b.WriteByte('\n')
	}
	g.b.WriteString("\nproc main() {\n")
	// initialization epoch for every array
	for _, a := range g.arrays {
		if a.rank == 1 {
			fmt.Fprintf(&g.b, "  doall i = 0 to n-1 { %s[i] = i * %.2f }\n", a.name, 0.1+g.r.Float64())
		} else {
			fmt.Fprintf(&g.b, "  doall i = 0 to n-1 { for j = 0 to n-1 { %s[i][j] = (i * n + j) * %.2f } }\n",
				a.name, 0.01+g.r.Float64()*0.1)
		}
	}
	// random construct sequence
	nc := 3 + g.r.Intn(5)
	for c := 0; c < nc; c++ {
		switch g.r.Intn(5) {
		case 4:
			g.doacross(1)
		case 0:
			g.serialStmt(1)
		case 1:
			// serial loop around doalls
			fmt.Fprintf(&g.b, "  for t = 0 to %d {\n", 1+g.r.Intn(2))
			nd := 1 + g.r.Intn(2)
			for k := 0; k < nd; k++ {
				g.doall(2)
			}
			g.b.WriteString("  }\n")
		case 2:
			// branch on a scalar
			sc := g.scalars[g.r.Intn(len(g.scalars))]
			fmt.Fprintf(&g.b, "  if (%s > 0.5) {\n", sc)
			g.doall(2)
			g.b.WriteString("  } else {\n")
			g.doall(2)
			g.b.WriteString("  }\n")
		default:
			g.doall(1)
		}
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

func TestRandomProgramsAllSchemesMatchOracle(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := newProgGen(seed).generate()
			// Stress unaligned layouts too: with AlignWords 1 arrays share
			// cache lines with scalars and each other, exercising the
			// neighbour-fill rule and false-sharing paths hard.
			opts := DefaultCompileOptions()
			opts.AlignWords = []int64{1, 4}[seed%2]
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("generated program does not compile: %v\n%s", err, src)
			}
			// Two cache geometries per seed: a small one with 64 sets
			// (one chunk of cache storage), and one of 192 sets — three
			// chunks, a set count that is not a power of two, and at
			// associativity 3 frame slots that are not either.
			geometries := []struct {
				words int64
				assoc int
			}{
				{256 << (seed % 3), []int{1, 2, 4}[seed%3]}, // small caches force evictions
				{[]int64{1536, 2304}[seed%2], []int{2, 3}[seed%2]},
			}
			for _, s := range machine.AllSchemes {
				for _, g := range geometries {
					cfg := machine.Default(s)
					cfg.Procs = 4 + int(seed%3)*2
					cfg.CacheWords = g.words
					cfg.Assoc = g.assoc
					if seed%4 == 3 {
						cfg.Topology = "torus"
					}
					cfg.MigrateSerial = seed%2 == 1
					cfg.CyclicSched = seed%3 == 1
					if s == machine.SchemeTPI {
						cfg.TimetagBits = []int{2, 4, 8}[seed%3] // force resets sometimes
						cfg.LineTimetags = seed%5 == 0
						cfg.TPIWriteBack = seed%7 == 0
					}
					if _, err := VerifyAgainstOracle(c, cfg); err != nil {
						t.Fatalf("seed %d scheme %s cache %d/%d: %v\nprogram:\n%s", seed, s, g.words, g.assoc, err, src)
					}
				}
			}
		})
	}
}

func TestRandomProgramsAblatedCompilerStillSound(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		src := newProgGen(seed).generate()
		c, err := Compile(src, CompileOptions{Interproc: false, FirstReadReuse: false, AlignWords: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := machine.Default(machine.SchemeTPI)
		cfg.Procs = 8
		cfg.Interproc = false
		cfg.FirstReadReuse = false
		if _, err := VerifyAgainstOracle(c, cfg); err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
	}
}
