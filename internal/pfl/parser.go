package pfl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a complete PFL program.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	lex   *lexer
	tok   token
	depth int // expression/block nesting guard
}

// maxDepth bounds recursive-descent nesting so pathological inputs
// (like kilobytes of open parentheses) fail with an error instead of
// exhausting the stack.
const maxDepth = 512

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errorf("nesting too deep (max %d)", maxDepth)
	}
	return nil
}

func (p *parser) exit() { p.depth-- }

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("pfl: %s: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokKeyword || p.tok.text != kw {
		return p.errorf("expected %q, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) expectOp(op string) error {
	if p.tok.kind != tokOp || p.tok.text != op {
		return p.errorf("expected %q, found %s", op, p.tok)
	}
	return p.advance()
}

func (p *parser) atOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.text == op
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) parseIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", p.tok)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) parseProgram() (*Program, error) {
	if err := p.expectKeyword("program"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	prog := &Program{Name: name}
	for {
		switch {
		case p.atKeyword("param"):
			d, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, d)
		case p.atKeyword("scalar"):
			d, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			prog.Scalars = append(prog.Scalars, d)
		case p.atKeyword("array"):
			d, err := p.parseArray()
			if err != nil {
				return nil, err
			}
			prog.Arrays = append(prog.Arrays, d)
		case p.atKeyword("proc"):
			pr, err := p.parseProc()
			if err != nil {
				return nil, err
			}
			prog.Procs = append(prog.Procs, pr)
		case p.tok.kind == tokEOF:
			return prog, nil
		default:
			return nil, p.errorf("expected declaration, found %s", p.tok)
		}
	}
}

func (p *parser) parseParam() (*ParamDecl, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume 'param'
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ParamDecl{Pos: pos, Name: name, Value: e}, nil
}

func (p *parser) parseScalar() (*ScalarDecl, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume 'scalar'
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d := &ScalarDecl{Pos: pos, Name: name}
	if p.atOp("=") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.atOp("-") {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokNumber {
			return nil, p.errorf("expected numeric initializer for scalar %s", name)
		}
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("scalar %s: %v", name, err)
		}
		if neg {
			v = -v
		}
		d.Init = v
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseArray() (*ArrayDecl, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume 'array'
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d := &ArrayDecl{Pos: pos, Name: name}
	for p.atOp("[") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Dims = append(d.Dims, e)
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
	}
	if len(d.Dims) == 0 {
		return nil, p.errorf("array %s needs at least one dimension", name)
	}
	return d, nil
}

func (p *parser) parseProc() (*Proc, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil { // consume 'proc'
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	pr := &Proc{Pos: pos, Name: name}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for !p.atOp(")") {
		fpos := p.tok.pos
		fname, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		rank := 0
		for p.atOp("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			rank++
		}
		if rank == 0 {
			return nil, p.errorf("formal %s must be an array (use %s[]... )", fname, fname)
		}
		pr.Formals = append(pr.Formals, &Formal{Pos: fpos, Name: fname, Rank: rank})
		if p.atOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	pr.Body = body
	return pr, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.exit()
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.atOp("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected end of input inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, p.advance() // consume '}'
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("doall"):
		return p.parseDoall()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("call"):
		return p.parseCall()
	case p.atKeyword("critical"):
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &CriticalStmt{Pos: pos, Body: body}, nil
	case p.atKeyword("ordered"):
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &OrderedStmt{Pos: pos, Body: body}, nil
	case p.tok.kind == tokIdent:
		return p.parseAssign()
	default:
		return nil, p.errorf("expected statement, found %s", p.tok)
	}
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.atKeyword("step") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Pos: pos, Var: v, Lo: lo, Hi: hi, Step: step, Body: body}, nil
}

func (p *parser) parseDoall() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &DoallStmt{Pos: pos, Var: v, Lo: lo, Hi: hi, Body: body}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: pos, Cond: cond, Then: then}
	if p.atKeyword("else") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) parseCall() (Stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &CallStmt{Pos: pos, Name: name}
	for !p.atOp(")") {
		arg, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		st.Args = append(st.Args, arg)
		if p.atOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return st, p.advance() // consume ')'
}

func (p *parser) parseAssign() (Stmt, error) {
	pos := p.tok.pos
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch lhs.(type) {
	case *VarRef, *IndexRef:
	default:
		return nil, p.errorf("invalid assignment target")
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Pos: pos, LHS: lhs, RHS: rhs}, nil
}

// Expression grammar (precedence climbing, lowest first):
//
//	expr    = orExpr
//	orExpr  = andExpr { "||" andExpr }
//	andExpr = cmpExpr { "&&" cmpExpr }
//	cmpExpr = addExpr [ ("<"|"<="|">"|">="|"=="|"!=") addExpr ]
//	addExpr = mulExpr { ("+"|"-") mulExpr }
//	mulExpr = unary   { ("*"|"/"|"%") unary }
//	unary   = [ "-" | "!" ] primary
//	primary = number | ident [ "[" expr "]" ... ] | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"<", "<=", ">", ">=", "==", "!="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && contains(precLevels[level], p.tok.text) {
		op := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Pos: pos, Op: op, X: x, Y: y}
		if level == 2 {
			break // comparisons do not chain
		}
	}
	return x, nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.exit()
	if p.atOp("-") || p.atOp("!") {
		op := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Pos: pos, Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.tok.pos
	switch {
	case p.tok.kind == tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", text)
		}
		lit := &NumLit{Pos: pos, Val: v, IsInt: !strings.ContainsAny(text, ".eE")}
		if lit.IsInt {
			lit.Int, err = strconv.ParseInt(text, 10, 64)
			if errors.Is(err, strconv.ErrRange) {
				lit.TooBig, err = true, nil
			}
			if err != nil {
				return nil, p.errorf("bad number %q", text)
			}
		}
		return lit, nil
	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atOp("(") {
			// intrinsic application
			if err := p.advance(); err != nil {
				return nil, err
			}
			ce := &CallExpr{Pos: pos, Name: name}
			for !p.atOp(")") {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ce.Args = append(ce.Args, arg)
				if p.atOp(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			return ce, p.advance() // consume ')'
		}
		if !p.atOp("[") {
			return &VarRef{Pos: pos, Name: name, RefID: -1}, nil
		}
		ref := &IndexRef{Pos: pos, Name: name, RefID: -1}
		for p.atOp("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			sub, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ref.Subs = append(ref.Subs, sub)
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
		}
		return ref, nil
	case p.atOp("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectOp(")")
	default:
		return nil, p.errorf("expected expression, found %s", p.tok)
	}
}
