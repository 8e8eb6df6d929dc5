package script

import "fmt"

// Parser is a recursive-descent parser for NKScript with operator-precedence
// expression parsing. It consumes a token stream produced by the Lexer.
type Parser struct {
	toks []Token
	pos  int
	file string
	// fns are the function literals being parsed, innermost last.
	fns []*FunctionLit
}

// Parse parses src into a Program. The file name is used in error messages.
func Parse(src, file string) (*Program, error) {
	toks, err := Tokenize(src, file)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, file: file}
	return p.parseProgram()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) peekAhead(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	t := p.cur()
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col, File: p.file}
}

func (p *Parser) at(typ TokenType, lit string) bool {
	t := p.cur()
	return t.Type == typ && (lit == "" || t.Literal == lit)
}

func (p *Parser) atPunct(lit string) bool   { return p.at(TokenPunct, lit) }
func (p *Parser) atKeyword(lit string) bool { return p.at(TokenKeyword, lit) }

func (p *Parser) expectPunct(lit string) error {
	if !p.atPunct(lit) {
		return p.errorf("expected %q, got %s", lit, p.cur())
	}
	p.next()
	return nil
}

// names records that the function being parsed refers to name.
func (p *Parser) names(name string) {
	if name == "arguments" && len(p.fns) > 0 {
		p.fns[len(p.fns)-1].namesArguments = true
	}
}

func (p *Parser) posOf(t Token) pos { return pos{Line: t.Line, Col: t.Col} }

// consumeSemicolon accepts an optional statement-terminating semicolon.
// NKScript does not implement automatic semicolon insertion based on
// newlines; semicolons are simply optional before }, EOF, or the next
// statement.
func (p *Parser) consumeSemicolon() {
	if p.atPunct(";") {
		p.next()
	}
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{pos: p.posOf(p.cur())}
	for p.cur().Type != TokenEOF {
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

func (p *Parser) parseStatement() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atPunct(";"):
		p.next()
		return &EmptyStmt{pos: p.posOf(t)}, nil
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atKeyword("var"):
		return p.parseVar()
	case p.atKeyword("function") && p.peekAhead(1).Type == TokenIdent:
		return p.parseFunctionDecl()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("while"):
		return p.parseWhile()
	case p.atKeyword("do"):
		return p.parseDoWhile()
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("return"):
		return p.parseReturn()
	case p.atKeyword("break"):
		p.next()
		p.consumeSemicolon()
		return &BreakStmt{pos: p.posOf(t)}, nil
	case p.atKeyword("continue"):
		p.next()
		p.consumeSemicolon()
		return &ContinueStmt{pos: p.posOf(t)}, nil
	case p.atKeyword("throw"):
		p.next()
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		p.consumeSemicolon()
		return &ThrowStmt{pos: p.posOf(t), X: x}, nil
	case p.atKeyword("try"):
		return p.parseTry()
	case p.atKeyword("switch"):
		return p.parseSwitch()
	}
	// Expression statement.
	x, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	p.consumeSemicolon()
	return &ExprStmt{pos: p.posOf(t), X: x}, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	t := p.cur()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{pos: p.posOf(t)}
	for !p.atPunct("}") {
		if p.cur().Type == TokenEOF {
			return nil, p.errorf("unexpected end of input in block")
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		blk.Body = append(blk.Body, s)
	}
	p.next() // consume }
	return blk, nil
}

func (p *Parser) parseVar() (Stmt, error) {
	t := p.next() // var
	stmt := &VarStmt{pos: p.posOf(t)}
	for {
		if p.cur().Type != TokenIdent {
			return nil, p.errorf("expected identifier in var declaration, got %s", p.cur())
		}
		name := p.next().Literal
		stmt.Names = append(stmt.Names, name)
		if p.atPunct("=") {
			p.next()
			v, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			stmt.Values = append(stmt.Values, v)
		} else {
			stmt.Values = append(stmt.Values, nil)
		}
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	p.consumeSemicolon()
	return stmt, nil
}

func (p *Parser) parseFunctionDecl() (Stmt, error) {
	t := p.next() // function
	name := p.next().Literal
	fn, err := p.parseFunctionRest(name, p.posOf(t))
	if err != nil {
		return nil, err
	}
	return &FunctionDecl{pos: p.posOf(t), Name: name, Fn: fn}, nil
}

// parseFunctionRest parses (params) { body } after the function keyword and
// optional name have been consumed.
func (p *Parser) parseFunctionRest(name string, at pos) (*FunctionLit, error) {
	fn := &FunctionLit{pos: at, Name: name}
	if len(p.fns) > 0 {
		p.fns[len(p.fns)-1].closes = true
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.atPunct(")") {
		if p.cur().Type != TokenIdent {
			return nil, p.errorf("expected parameter name, got %s", p.cur())
		}
		fn.Params = append(fn.Params, p.next().Literal)
		if p.atPunct(",") {
			p.next()
		}
	}
	p.next() // )
	p.fns = append(p.fns, fn)
	body, err := p.parseBlock()
	p.fns = p.fns[:len(p.fns)-1]
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.slots = len(fn.Params) + 2
	for _, s := range body.Body {
		switch st := s.(type) {
		case *VarStmt:
			fn.slots += len(st.Names)
		case *FunctionDecl:
			fn.slots++
		}
	}
	return fn, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt := &IfStmt{pos: p.posOf(t), Cond: cond, Then: then}
	if p.atKeyword("else") {
		p.next()
		els, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmt.Else = els
	}
	return stmt, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{pos: p.posOf(t), Cond: cond, Body: body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	t := p.next() // do
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("while") {
		return nil, p.errorf("expected while after do body, got %s", p.cur())
	}
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.consumeSemicolon()
	return &DoWhileStmt{pos: p.posOf(t), Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	// for-in detection: "for (var x in e)" or "for (x in e)".
	if p.atKeyword("var") && p.peekAhead(1).Type == TokenIdent && p.peekAhead(2).Type == TokenKeyword && p.peekAhead(2).Literal == "in" {
		p.next() // var
		name := p.next().Literal
		p.next() // in
		obj, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ForInStmt{pos: p.posOf(t), Name: name, Declare: true, Object: obj, Body: body}, nil
	}
	if p.cur().Type == TokenIdent && p.peekAhead(1).Type == TokenKeyword && p.peekAhead(1).Literal == "in" {
		name := p.next().Literal
		p.names(name)
		p.next() // in
		obj, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ForInStmt{pos: p.posOf(t), Name: name, Declare: false, Object: obj, Body: body}, nil
	}

	stmt := &ForStmt{pos: p.posOf(t)}
	// Init clause.
	if !p.atPunct(";") {
		if p.atKeyword("var") {
			init, err := p.parseVar() // consumes trailing semicolon if present
			if err != nil {
				return nil, err
			}
			stmt.Init = init
		} else {
			x, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			stmt.Init = &ExprStmt{pos: p.posOf(t), X: x}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next() // ;
	}
	// Condition.
	if !p.atPunct(";") {
		cond, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.Cond = cond
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	// Post.
	if !p.atPunct(")") {
		post, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.Post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	return stmt, nil
}

func (p *Parser) parseReturn() (Stmt, error) {
	t := p.next() // return
	stmt := &ReturnStmt{pos: p.posOf(t)}
	if !p.atPunct(";") && !p.atPunct("}") && p.cur().Type != TokenEOF {
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.X = x
	}
	p.consumeSemicolon()
	return stmt, nil
}

func (p *Parser) parseTry() (Stmt, error) {
	t := p.next() // try
	blk, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &TryStmt{pos: p.posOf(t), Block: blk}
	if p.atKeyword("catch") {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().Type != TokenIdent {
			return nil, p.errorf("expected catch parameter name, got %s", p.cur())
		}
		stmt.Param = p.next().Literal
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		c, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt.Catch = c
	}
	if p.atKeyword("finally") {
		p.next()
		f, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt.Finally = f
	}
	if stmt.Catch == nil && stmt.Finally == nil {
		return nil, p.errorf("try statement requires catch or finally")
	}
	return stmt, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	t := p.next() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	disc, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	stmt := &SwitchStmt{pos: p.posOf(t), Disc: disc}
	for !p.atPunct("}") {
		var c SwitchCase
		if p.atKeyword("case") {
			p.next()
			test, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			c.Test = test
		} else if p.atKeyword("default") {
			p.next()
		} else {
			return nil, p.errorf("expected case or default in switch, got %s", p.cur())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") {
			if p.cur().Type == TokenEOF {
				return nil, p.errorf("unexpected end of input in switch")
			}
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		stmt.Cases = append(stmt.Cases, c)
	}
	p.next() // }
	return stmt, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseExpression parses a full (possibly comma-separated) expression.
func (p *Parser) parseExpression() (Expr, error) {
	first, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return first, nil
	}
	seq := &SequenceExpr{pos: pos{}, Exprs: []Expr{first}}
	if l, c := first.nodePos(); true {
		seq.Line, seq.Col = l, c
	}
	for p.atPunct(",") {
		p.next()
		e, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, e)
	}
	return seq, nil
}

var assignOps = map[string]bool{"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true}

func (p *Parser) parseAssignment() (Expr, error) {
	left, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	if p.cur().Type == TokenPunct && assignOps[p.cur().Literal] {
		op := p.next().Literal
		switch left.(type) {
		case *Ident, *MemberExpr, *IndexExpr:
		default:
			return nil, p.errorf("invalid assignment target")
		}
		right, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		l, c := left.nodePos()
		return &AssignExpr{pos: pos{Line: l, Col: c}, Op: op, X: left, Y: right}, nil
	}
	return left, nil
}

func (p *Parser) parseConditional() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.atPunct("?") {
		return cond, nil
	}
	p.next()
	then, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	l, c := cond.nodePos()
	return &CondExpr{pos: pos{Line: l, Col: c}, Cond: cond, Then: then, Else: els}, nil
}

// binary operator precedence table (higher binds tighter).
var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) binaryOp() (string, int, bool) {
	t := p.cur()
	if t.Type == TokenPunct {
		if prec, ok := binaryPrec[t.Literal]; ok {
			return t.Literal, prec, true
		}
	}
	if t.Type == TokenKeyword && (t.Literal == "in" || t.Literal == "instanceof") {
		return t.Literal, binaryPrec[t.Literal], true
	}
	return "", 0, false
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec, ok := p.binaryOp()
		if !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l, c := left.nodePos()
		left = &BinaryExpr{pos: pos{Line: l, Col: c}, Op: op, X: left, Y: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Type == TokenPunct && (t.Literal == "!" || t.Literal == "-" || t.Literal == "+" || t.Literal == "~") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{pos: p.posOf(t), Op: t.Literal, X: x}, nil
	}
	if t.Type == TokenKeyword && (t.Literal == "typeof" || t.Literal == "delete") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{pos: p.posOf(t), Op: t.Literal, X: x}, nil
	}
	if t.Type == TokenPunct && (t.Literal == "++" || t.Literal == "--") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UpdateExpr{pos: p.posOf(t), Op: t.Literal, X: x, Prefix: true}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parseCallMember()
	if err != nil {
		return nil, err
	}
	if p.atPunct("++") || p.atPunct("--") {
		t := p.next()
		return &UpdateExpr{pos: p.posOf(t), Op: t.Literal, X: x, Prefix: false}, nil
	}
	return x, nil
}

// parseCallMember parses primary expressions followed by any chain of member
// accesses, index accesses, and call argument lists.
func (p *Parser) parseCallMember() (Expr, error) {
	var x Expr
	var err error
	if p.atKeyword("new") {
		t := p.next()
		callee, err := p.parseMemberOnly()
		if err != nil {
			return nil, err
		}
		var args []Expr
		if p.atPunct("(") {
			args, err = p.parseArgs()
			if err != nil {
				return nil, err
			}
		}
		x = &NewExpr{pos: p.posOf(t), Fn: callee, Args: args}
	} else {
		x, err = p.parsePrimary()
		if err != nil {
			return nil, err
		}
	}
	return p.parseCallMemberTail(x)
}

// parseMemberOnly parses a primary expression followed by member/index
// accesses but not calls; used for the callee of new expressions so that
// new Foo.Bar(x) parses as new (Foo.Bar)(x).
func (p *Parser) parseMemberOnly() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("."):
			p.next()
			if p.cur().Type != TokenIdent && p.cur().Type != TokenKeyword {
				return nil, p.errorf("expected property name after '.', got %s", p.cur())
			}
			name := p.next().Literal
			l, c := x.nodePos()
			x = &MemberExpr{pos: pos{Line: l, Col: c}, X: x, Name: name}
		case p.atPunct("["):
			p.next()
			idx, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			l, c := x.nodePos()
			x = &IndexExpr{pos: pos{Line: l, Col: c}, X: x, Index: idx}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseCallMemberTail(x Expr) (Expr, error) {
	for {
		switch {
		case p.atPunct("."):
			p.next()
			if p.cur().Type != TokenIdent && p.cur().Type != TokenKeyword {
				return nil, p.errorf("expected property name after '.', got %s", p.cur())
			}
			name := p.next().Literal
			l, c := x.nodePos()
			x = &MemberExpr{pos: pos{Line: l, Col: c}, X: x, Name: name}
		case p.atPunct("["):
			p.next()
			idx, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			l, c := x.nodePos()
			x = &IndexExpr{pos: pos{Line: l, Col: c}, X: x, Index: idx}
		case p.atPunct("("):
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			l, c := x.nodePos()
			x = &CallExpr{pos: pos{Line: l, Col: c}, Fn: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.atPunct(")") {
		a, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Type == TokenNumber:
		p.next()
		return &NumberLit{pos: p.posOf(t), Value: t.Num, val: Number(t.Num)}, nil
	case t.Type == TokenString:
		p.next()
		return &StringLit{pos: p.posOf(t), Value: t.Literal, val: String(t.Literal)}, nil
	case t.Type == TokenIdent:
		p.next()
		p.names(t.Literal)
		return &Ident{pos: p.posOf(t), Name: t.Literal}, nil
	case p.atKeyword("true"):
		p.next()
		return &BoolLit{pos: p.posOf(t), Value: true}, nil
	case p.atKeyword("false"):
		p.next()
		return &BoolLit{pos: p.posOf(t), Value: false}, nil
	case p.atKeyword("null"):
		p.next()
		return &NullLit{pos: p.posOf(t)}, nil
	case p.atKeyword("undefined"):
		p.next()
		return &UndefinedLit{pos: p.posOf(t)}, nil
	case p.atKeyword("this"):
		p.next()
		return &ThisLit{pos: p.posOf(t)}, nil
	case p.atKeyword("function"):
		p.next()
		name := ""
		if p.cur().Type == TokenIdent {
			name = p.next().Literal
		}
		return p.parseFunctionRest(name, p.posOf(t))
	case p.atPunct("("):
		p.next()
		x, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	case p.atPunct("["):
		return p.parseArrayLit()
	case p.atPunct("{"):
		return p.parseObjectLit()
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}

func (p *Parser) parseArrayLit() (Expr, error) {
	t := p.next() // [
	lit := &ArrayLit{pos: p.posOf(t)}
	for !p.atPunct("]") {
		if p.cur().Type == TokenEOF {
			return nil, p.errorf("unexpected end of input in array literal")
		}
		e, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, e)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return lit, nil
}

func (p *Parser) parseObjectLit() (Expr, error) {
	t := p.next() // {
	lit := &ObjectLit{pos: p.posOf(t)}
	for !p.atPunct("}") {
		if p.cur().Type == TokenEOF {
			return nil, p.errorf("unexpected end of input in object literal")
		}
		kt := p.cur()
		var key string
		switch {
		case kt.Type == TokenIdent || kt.Type == TokenKeyword:
			key = kt.Literal
			p.next()
		case kt.Type == TokenString:
			key = kt.Literal
			p.next()
		case kt.Type == TokenNumber:
			key = kt.Literal
			p.next()
		default:
			return nil, p.errorf("invalid object literal key %s", kt)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		lit.Keys = append(lit.Keys, key)
		lit.Values = append(lit.Values, v)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return lit, nil
}
