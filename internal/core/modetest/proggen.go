package modetest

import (
	"fmt"
	"math/rand"
	"strings"
)

// Program is the random PFL program of seed: DOALL-independent by
// construction, so every scheme must give it the sequential oracle's
// final memory. The same seed always gives the same program.
func Program(seed int64) string { return newProgGen(seed).generate() }

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
