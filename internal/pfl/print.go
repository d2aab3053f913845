package pfl

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders a program back to parseable PFL source.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, d := range p.Params {
		fmt.Fprintf(&b, "param %s = %s\n", d.Name, FormatExpr(d.Value))
	}
	for _, d := range p.Scalars {
		if d.Init != 0 {
			fmt.Fprintf(&b, "scalar %s = %s\n", d.Name, formatFloat(d.Init))
		} else {
			fmt.Fprintf(&b, "scalar %s\n", d.Name)
		}
	}
	for _, d := range p.Arrays {
		fmt.Fprintf(&b, "array %s", d.Name)
		for _, dim := range d.Dims {
			fmt.Fprintf(&b, "[%s]", FormatExpr(dim))
		}
		b.WriteByte('\n')
	}
	for _, pr := range p.Procs {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "proc %s(", pr.Name)
		for i, f := range pr.Formals {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name + strings.Repeat("[]", f.Rank))
		}
		b.WriteString(") ")
		formatBlock(&b, pr.Body, 0)
		b.WriteByte('\n')
	}
	return b.String()
}

func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func formatBlock(b *strings.Builder, blk *Block, depth int) {
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		formatStmt(b, s, depth+1)
	}
	indent(b, depth)
	b.WriteString("}")
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func formatStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *AssignStmt:
		fmt.Fprintf(b, "%s = %s\n", FormatExpr(st.LHS), FormatExpr(st.RHS))
	case *ForStmt:
		fmt.Fprintf(b, "for %s = %s to %s", st.Var, FormatExpr(st.Lo), FormatExpr(st.Hi))
		if st.Step != nil {
			fmt.Fprintf(b, " step %s", FormatExpr(st.Step))
		}
		b.WriteString(" ")
		formatBlock(b, st.Body, depth)
		b.WriteString("\n")
	case *DoallStmt:
		fmt.Fprintf(b, "doall %s = %s to %s ", st.Var, FormatExpr(st.Lo), FormatExpr(st.Hi))
		formatBlock(b, st.Body, depth)
		b.WriteString("\n")
	case *IfStmt:
		fmt.Fprintf(b, "if (%s) ", FormatExpr(st.Cond))
		formatBlock(b, st.Then, depth)
		if st.Else != nil {
			b.WriteString(" else ")
			formatBlock(b, st.Else, depth)
		}
		b.WriteString("\n")
	case *CallStmt:
		fmt.Fprintf(b, "call %s(%s)\n", st.Name, strings.Join(st.Args, ", "))
	case *CriticalStmt:
		b.WriteString("critical ")
		formatBlock(b, st.Body, depth)
		b.WriteString("\n")
	case *OrderedStmt:
		b.WriteString("ordered ")
		formatBlock(b, st.Body, depth)
		b.WriteString("\n")
	}
}

// FormatExpr renders an expression to parseable source.
func FormatExpr(e Expr) string {
	switch ex := e.(type) {
	case *NumLit:
		if v, ok := ex.IntValue(); ok {
			return strconv.FormatInt(v, 10)
		}
		if ex.IsInt { // past int64: keep it an integer literal
			return strconv.FormatFloat(ex.Val, 'f', 0, 64)
		}
		return formatFloat(ex.Val)
	case *VarRef:
		return ex.Name
	case *IndexRef:
		var b strings.Builder
		b.WriteString(ex.Name)
		for _, s := range ex.Subs {
			fmt.Fprintf(&b, "[%s]", FormatExpr(s))
		}
		return b.String()
	case *UnExpr:
		return ex.Op + parenIfBinary(ex.X)
	case *CallExpr:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = FormatExpr(a)
		}
		return ex.Name + "(" + strings.Join(args, ", ") + ")"
	case *BinExpr:
		return fmt.Sprintf("%s %s %s", parenIfBinary(ex.X), ex.Op, parenIfBinary(ex.Y))
	default:
		return "<?expr>"
	}
}

func parenIfBinary(e Expr) string {
	if _, ok := e.(*BinExpr); ok {
		return "(" + FormatExpr(e) + ")"
	}
	return FormatExpr(e)
}
