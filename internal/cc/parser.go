package cc

import (
	"fmt"

	"repro/internal/ctypes"
)

// ParseError is a positioned mini-C front-end error.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	toks []token
	pos  int
	tb   *ctypes.Table
}

func (p *parser) fail(tok token, format string, args ...any) {
	panic(&ParseError{tok.line, tok.col, fmt.Sprintf(format, args...)})
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token { // one token of lookahead past peek
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(text string) bool {
	t := p.peek()
	return (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text
}

func (p *parser) eat(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) token {
	if !p.at(text) {
		p.fail(p.peek(), "expected %q, found %s", text, p.peek())
	}
	return p.next()
}

func (p *parser) expectIdent() token {
	t := p.peek()
	if t.kind != tokIdent {
		p.fail(t, "expected identifier, found %s", t)
	}
	return p.next()
}

// parseFile parses a whole translation unit.
func (p *parser) parseFile() *file {
	f := &file{}
	for p.peek().kind != tokEOF {
		// Record definition: struct/union/class IDENT ... { ... } ;
		if p.at("struct") || p.at("union") || p.at("class") {
			if p.isRecordDef() {
				p.parseRecordDef()
				p.expect(";")
				continue
			}
		}
		p.parseGlobalOrFunc(f)
	}
	return f
}

// isRecordDef distinguishes `struct S { ... };` (a definition) from
// `struct S x;` / `struct S *f() {...}` (uses of the type).
func (p *parser) isRecordDef() bool {
	// struct IDENT '{'  or  struct IDENT ':' (inheritance)
	if p.peek2().kind != tokIdent {
		return false
	}
	if p.pos+2 < len(p.toks) {
		t := p.toks[p.pos+2]
		return t.text == "{" || t.text == ":"
	}
	return false
}

// parseRecordDef parses and registers a tagged record definition.
func (p *parser) parseRecordDef() *ctypes.Type {
	kw := p.next()
	kind := map[string]ctypes.Kind{
		"struct": ctypes.KindStruct, "union": ctypes.KindUnion, "class": ctypes.KindClass,
	}[kw.text]
	nameTok := p.expectIdent()

	var members []ctypes.Member
	if p.eat(":") {
		if kind == ctypes.KindUnion {
			p.fail(nameTok, "union cannot have base classes")
		}
		for {
			p.eat("public")
			p.eat("virtual")
			baseTok := p.expectIdent()
			base := p.tb.Lookup(ctypes.KindClass, baseTok.text)
			if base == nil {
				base = p.tb.Lookup(ctypes.KindStruct, baseTok.text)
			}
			if base == nil {
				p.fail(baseTok, "unknown base class %q", baseTok.text)
			}
			members = append(members, ctypes.Member{
				Name: "__base_" + baseTok.text, Type: base, IsBase: true,
			})
			if !p.eat(",") {
				break
			}
		}
	}
	p.expect("{")
	for !p.eat("}") {
		base := p.parseTypeSpec()
		for {
			typ, name := p.parseDeclarator(base, true)
			members = append(members, ctypes.Member{Name: name, Type: typ})
			if !p.eat(",") {
				break
			}
		}
		p.expect(";")
	}
	for i, m := range members {
		if m.Type.IsIncompleteArray() && (i != len(members)-1 || kind == ctypes.KindUnion) {
			p.fail(nameTok, "flexible array member %q must be the last struct member", m.Name)
		}
	}
	t := p.tb.Declare(kind, nameTok.text)
	if t.IsComplete() {
		p.fail(nameTok, "redefinition of %s %s", kw.text, nameTok.text)
	}
	return p.tb.Complete(t, members)
}

// parseTypeSpec parses the specifier part of a declaration: fundamental
// type keywords or a record reference (which may forward declare).
func (p *parser) parseTypeSpec() *ctypes.Type {
	t := p.peek()
	switch t.text {
	case "struct", "union", "class":
		kw := p.next()
		kind := map[string]ctypes.Kind{
			"struct": ctypes.KindStruct, "union": ctypes.KindUnion, "class": ctypes.KindClass,
		}[kw.text]
		nameTok := p.expectIdent()
		return p.tb.Declare(kind, nameTok.text)
	case "void":
		p.next()
		return ctypes.Void
	case "bool":
		p.next()
		return ctypes.Bool
	case "float":
		p.next()
		return ctypes.Float
	case "double":
		p.next()
		return ctypes.Double
	}
	words := ""
	for {
		switch p.peek().text {
		case "signed", "unsigned", "char", "short", "int", "long":
			if words != "" {
				words += " "
			}
			words += p.next().text
			continue
		}
		break
	}
	if words == "" {
		p.fail(t, "expected type, found %s", t)
	}
	typ, err := p.tb.Parse(words)
	if err != nil {
		p.fail(t, "bad type specifier %q", words)
	}
	return typ
}

// parseDeclarator parses `"*"* IDENT ("[" N "]" | "[]")*` and returns the
// declared type and name. allowFAM permits a trailing [] (members only).
func (p *parser) parseDeclarator(base *ctypes.Type, allowFAM bool) (*ctypes.Type, string) {
	for p.eat("*") {
		base = p.tb.PointerTo(base)
	}
	nameTok := p.expectIdent()
	// Array suffixes apply outermost-first.
	var dims []int64
	fam := false
	for p.eat("[") {
		if p.eat("]") {
			if !allowFAM || fam {
				p.fail(nameTok, "unexpected [] in declarator")
			}
			fam = true
			break
		}
		szTok := p.peek()
		if szTok.kind != tokInt {
			p.fail(szTok, "array length must be an integer literal")
		}
		p.next()
		p.expect("]")
		dims = append(dims, szTok.ival)
	}
	typ := base
	for i := len(dims) - 1; i >= 0; i-- {
		typ = p.arrayOf(nameTok, typ, dims[i])
	}
	if fam {
		if !typ.IsComplete() {
			p.fail(nameTok, "array of incomplete type %s", typ)
		}
		typ = p.tb.IncompleteArrayOf(typ)
	}
	return typ, nameTok.text
}

// arrayOf is Table.ArrayOf with a diagnostic instead of a panic for an
// incomplete element type.
func (p *parser) arrayOf(tok token, elem *ctypes.Type, n int64) *ctypes.Type {
	if !elem.IsComplete() {
		p.fail(tok, "array of incomplete type %s", elem)
	}
	return p.tb.ArrayOf(elem, n)
}

// parseTypeName parses an abstract type usage (casts, sizeof, new):
// typespec "*"* ("[" N "]")?.
func (p *parser) parseTypeName() *ctypes.Type {
	typ := p.parseTypeSpec()
	for p.eat("*") {
		typ = p.tb.PointerTo(typ)
	}
	if p.eat("[") {
		szTok := p.peek()
		if szTok.kind != tokInt {
			p.fail(szTok, "array length must be an integer literal")
		}
		p.next()
		p.expect("]")
		typ = p.arrayOf(szTok, typ, szTok.ival)
	}
	return typ
}

// parseGlobalOrFunc parses a top-level declaration: a global object or a
// function definition.
func (p *parser) parseGlobalOrFunc(f *file) {
	start := p.peek()
	base := p.parseTypeSpec()
	// void functions: `void f(...)`.
	nptr := 0
	for p.eat("*") {
		nptr++
	}
	nameTok := p.expectIdent()
	typ := base
	for i := 0; i < nptr; i++ {
		typ = p.tb.PointerTo(typ)
	}

	if p.at("(") {
		fn := &funcDecl{name: nameTok.text, pos: nameTok}
		if !(typ == ctypes.Void && nptr == 0) {
			fn.ret = typ
		}
		p.expect("(")
		if !p.eat(")") {
			for {
				if p.at("void") && p.peek2().text == ")" {
					p.next()
					break
				}
				pbase := p.parseTypeSpec()
				ptyp, pname := p.parseDeclarator(pbase, false)
				if ptyp.Kind == ctypes.KindArray {
					// Array parameters decay to pointers, as in C.
					ptyp = p.tb.PointerTo(ptyp.Elem)
				}
				fn.params = append(fn.params, paramDecl{name: pname, typ: ptyp})
				if !p.eat(",") {
					break
				}
			}
			p.expect(")")
		}
		fn.body = p.parseBlock()
		f.funcs = append(f.funcs, fn)
		return
	}

	// Global object.
	g := &globalDecl{name: nameTok.text, pos: start, count: 1}
	var dims []int64
	for p.eat("[") {
		szTok := p.peek()
		if szTok.kind != tokInt {
			p.fail(szTok, "array length must be an integer literal")
		}
		p.next()
		p.expect("]")
		dims = append(dims, szTok.ival)
	}
	// The outermost dimension becomes the allocation count; inner
	// dimensions stay in the element type (matching Example 1's
	// "S x[8] bound to S[8]").
	if len(dims) > 0 {
		for i := len(dims) - 1; i >= 1; i-- {
			typ = p.arrayOf(nameTok, typ, dims[i])
		}
		g.count = dims[0]
		g.isArr = true
	}
	g.typ = typ
	p.expect(";")
	f.globals = append(f.globals, g)
}

// Statements.

func (p *parser) parseBlock() *blockStmt {
	p.expect("{")
	b := &blockStmt{}
	for !p.eat("}") {
		b.stmts = append(b.stmts, p.parseStmt())
	}
	return b
}

func (p *parser) parseStmt() stmt {
	t := p.peek()
	switch {
	case t.text == "{" && t.kind == tokPunct:
		return p.parseBlock()
	case p.at("if"):
		p.next()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		then := p.parseStmt()
		var els stmt
		if p.eat("else") {
			els = p.parseStmt()
		}
		return &ifStmt{cond: cond, then: then, els_: els}
	case p.at("while"):
		p.next()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		return &whileStmt{cond: cond, body: p.parseStmt()}
	case p.at("for"):
		p.next()
		p.expect("(")
		fs := &forStmt{}
		if !p.eat(";") {
			fs.init = p.parseSimpleStmt()
			p.expect(";")
		}
		if !p.at(";") {
			fs.cond = p.parseExpr()
		}
		p.expect(";")
		if !p.at(")") {
			fs.post = p.parseExpr()
		}
		p.expect(")")
		fs.body = p.parseStmt()
		return fs
	case p.at("return"):
		tok := p.next()
		rs := &returnStmt{pos: tok}
		if !p.at(";") {
			rs.e = p.parseExpr()
		}
		p.expect(";")
		return rs
	case p.at("break"):
		tok := p.next()
		p.expect(";")
		return &breakStmt{pos: tok}
	case p.at("continue"):
		tok := p.next()
		p.expect(";")
		return &continueStmt{pos: tok}
	default:
		s := p.parseSimpleStmt()
		p.expect(";")
		return s
	}
}

// parseSimpleStmt parses a declaration or expression statement (no
// trailing semicolon).
func (p *parser) parseSimpleStmt() stmt {
	if typeStart(p.peek()) {
		base := p.parseTypeSpec()
		typ, name := p.parseDeclarator(base, false)
		ds := &declStmt{name: name, typ: typ, pos: p.peek()}
		if p.eat("=") {
			ds.init = p.parseAssign()
		}
		return ds
	}
	return &exprStmt{e: p.parseExpr()}
}

// Expressions (precedence climbing).

func (p *parser) parseExpr() expr { return p.parseAssign() }

func (p *parser) parseAssign() expr {
	l := p.parseConditional()
	t := p.peek()
	switch t.text {
	case "=", "+=", "-=", "*=", "/=":
		p.next()
		r := p.parseAssign()
		return &assignExpr{op: t.text, l: l, r: r, tok: t}
	}
	return l
}

// parseConditional parses the C ternary operator (right-associative).
func (p *parser) parseConditional() expr {
	cond := p.parseBinary(0)
	t := p.peek()
	if t.kind != tokPunct || t.text != "?" {
		return cond
	}
	p.next()
	then := p.parseAssign()
	p.expect(":")
	els := p.parseConditional()
	return &condExpr{cond: cond, then: then, els: els, tok: t}
}

// binLevels orders binary operators from loosest to tightest.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) expr {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	l := p.parseBinary(level + 1)
	for {
		t := p.peek()
		if t.kind != tokPunct || !contains(binLevels[level], t.text) {
			return l
		}
		p.next()
		r := p.parseBinary(level + 1)
		l = &binaryExpr{op: t.text, l: l, r: r, tok: t}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func (p *parser) parseUnary() expr {
	t := p.peek()
	switch t.text {
	case "-", "!", "*", "&":
		if t.kind == tokPunct {
			p.next()
			return &unaryExpr{op: t.text, e: p.parseUnary(), tok: t}
		}
	case "(":
		// Cast if a type follows the parenthesis.
		if typeStart(p.peek2()) {
			p.next()
			typ := p.parseTypeName()
			p.expect(")")
			return &castExpr{typ: typ, e: p.parseUnary(), tok: t}
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() expr {
	e := p.parsePrimary()
	for {
		t := p.peek()
		switch t.text {
		case "[":
			p.next()
			idx := p.parseExpr()
			p.expect("]")
			e = &indexExpr{base: e, idx: idx, tok: t}
		case ".":
			p.next()
			name := p.expectIdent()
			e = &fieldExpr{base: e, name: name.text, arrow: false, tok: t}
		case "->":
			p.next()
			name := p.expectIdent()
			e = &fieldExpr{base: e, name: name.text, arrow: true, tok: t}
		case "++", "--":
			p.next()
			op := "+="
			if t.text == "--" {
				op = "-="
			}
			one := &intLit{v: 1, typ: ctypes.Int, tok: t}
			e = &assignExpr{op: op, l: e, r: one, tok: t}
		default:
			return e
		}
	}
}

func (p *parser) parsePrimary() expr {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.next()
		typ := ctypes.Int
		if t.ival > 0x7fffffff || t.ival < -0x80000000 {
			typ = ctypes.Long
		}
		return &intLit{v: t.ival, typ: typ, tok: t}
	case t.kind == tokFloat:
		p.next()
		return &floatLit{v: t.fval, tok: t}
	case t.kind == tokChar:
		p.next()
		return &intLit{v: t.ival, typ: ctypes.Char, tok: t}
	case t.kind == tokString:
		p.next()
		return &strLit{s: t.text, tok: t}
	case p.at("null"):
		p.next()
		return &nullLit{tok: t}
	case p.at("sizeof"):
		p.next()
		p.expect("(")
		typ := p.parseTypeName()
		p.expect(")")
		return &sizeofExpr{typ: typ, tok: t}
	case p.at("malloc"), p.at("legacy_malloc"):
		legacy := t.text == "legacy_malloc"
		p.next()
		p.expect("(")
		size := p.parseExpr()
		p.expect(")")
		return &mallocExpr{size: size, legacy: legacy, tok: t}
	case p.at("realloc"):
		p.next()
		p.expect("(")
		ptr := p.parseExpr()
		p.expect(",")
		size := p.parseExpr()
		p.expect(")")
		return &reallocExpr{p: ptr, size: size, tok: t}
	case p.at("new"):
		p.next()
		typ := p.parseTypeSpec()
		for p.eat("*") {
			typ = p.tb.PointerTo(typ)
		}
		ne := &newExpr{typ: typ, tok: t}
		if p.eat("[") {
			ne.count = p.parseExpr()
			p.expect("]")
		}
		return ne
	case p.at("free"), p.at("delete"), p.at("memcpy"), p.at("memset"),
		p.at("print"), p.at("puts"):
		p.next()
		ce := &callExpr{name: t.text, tok: t}
		p.expect("(")
		if !p.eat(")") {
			for {
				ce.args = append(ce.args, p.parseExpr())
				if !p.eat(",") {
					break
				}
			}
			p.expect(")")
		}
		return ce
	case t.kind == tokIdent:
		p.next()
		if p.at("(") {
			ce := &callExpr{name: t.text, tok: t}
			p.expect("(")
			if !p.eat(")") {
				for {
					ce.args = append(ce.args, p.parseExpr())
					if !p.eat(",") {
						break
					}
				}
				p.expect(")")
			}
			return ce
		}
		return &identExpr{name: t.text, tok: t}
	case p.at("("):
		p.next()
		e := p.parseExpr()
		p.expect(")")
		return e
	}
	p.fail(t, "unexpected token %s in expression", t)
	return nil
}
