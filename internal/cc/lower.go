package cc

import (
	"fmt"

	"repro/internal/ctypes"
	"repro/internal/mir"
)

// Compile parses and lowers a mini-C translation unit into a fresh MIR
// program over the given type table.
func Compile(src string, tb *ctypes.Table) (*mir.Program, error) {
	prog := mir.NewProgram(tb)
	if err := CompileInto(src, prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustCompile is Compile panicking on error, for workload definitions.
func MustCompile(src string, tb *ctypes.Table) *mir.Program {
	p, err := Compile(src, tb)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileInto parses src and adds its globals and functions to prog
// (multiple translation units may share one program).
func CompileInto(src string, prog *mir.Program) (err error) {
	defer func() {
		if e := recover(); e != nil {
			if pe, ok := e.(*ParseError); ok {
				err = fmt.Errorf("cc: %w", pe)
				return
			}
			panic(e)
		}
	}()
	toks, lerr := lex(src)
	if lerr != nil {
		return fmt.Errorf("cc: %w", lerr)
	}
	p := &parser{toks: toks, tb: prog.Types}
	f := p.parseFile()

	lo := &lowerer{prog: prog, tb: prog.Types, file: f, fns: map[string]*funcDecl{}}
	for _, fn := range f.funcs {
		if _, dup := lo.fns[fn.name]; dup || prog.Funcs[fn.name] != nil {
			lo.fail(fn.pos, "redefinition of function %q", fn.name)
		}
		lo.fns[fn.name] = fn
	}
	for _, g := range f.globals {
		if prog.GlobalIndex(g.name) >= 0 {
			lo.fail(g.pos, "redefinition of global %q", g.name)
		}
		if !g.typ.IsComplete() {
			lo.fail(g.pos, "global %q has incomplete type %s", g.name, g.typ)
		}
		gi := prog.AddGlobal(g.name, g.typ, uint64(g.count))
		prog.Globals[gi].Array = g.isArr
	}
	for _, fn := range f.funcs {
		lo.lowerFunc(fn)
	}
	return prog.Validate()
}

// lowerer performs typed lowering of the AST to MIR.
type lowerer struct {
	prog *mir.Program
	tb   *ctypes.Table
	file *file
	fns  map[string]*funcDecl

	// Per-function state.
	fn        *funcDecl
	b         *mir.FuncBuilder
	scopes    []map[string]*symbol
	breakTo   []int
	contTo    []int
	addrTaken map[string]bool
}

// symbol binds a name to either a value register (register-resident
// scalars, the analogue of LLVM's mem2reg) or a memory object address.
type symbol struct {
	typ   *ctypes.Type // declared type
	reg   int          // value register, or address register when isMem
	isMem bool
}

func (lo *lowerer) fail(tok token, format string, args ...any) {
	panic(&ParseError{tok.line, tok.col, fmt.Sprintf(format, args...)})
}

// value is a typed rvalue in a register.
type value struct {
	typ *ctypes.Type
	reg int
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, map[string]*symbol{}) }
func (lo *lowerer) popScope()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) define(name string, s *symbol) {
	lo.scopes[len(lo.scopes)-1][name] = s
}

func (lo *lowerer) lookup(name string) *symbol {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if s, ok := lo.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (lo *lowerer) lowerFunc(fn *funcDecl) {
	lo.fn = fn
	lo.addrTaken = map[string]bool{}
	collectAddrTaken(fn.body, lo.addrTaken)

	params := make([]mir.Param, len(fn.params))
	for i, p := range fn.params {
		params[i] = mir.Param{Name: p.name, Type: p.typ}
	}
	lo.b = mir.NewFunc(lo.prog, fn.name, fn.ret, params...)
	lo.scopes = nil
	lo.pushScope()
	for i, p := range fn.params {
		if lo.addrTaken[p.name] {
			// Address-taken parameters are spilled to a stack object.
			addr := lo.b.Alloca(p.typ, 1)
			lo.b.Store(p.typ, addr, lo.b.Param(i))
			lo.define(p.name, &symbol{typ: p.typ, reg: addr, isMem: true})
		} else {
			lo.define(p.name, &symbol{typ: p.typ, reg: lo.b.Param(i)})
		}
	}
	lo.lowerBlock(fn.body)
	if !lo.terminated() {
		if fn.ret == nil {
			lo.b.RetVoid()
		} else {
			lo.b.Ret(lo.b.Const(fn.ret, 0))
		}
	}
	lo.popScope()
}

// collectAddrTaken records names whose address is taken with unary &
// (they must live in memory rather than registers).
func collectAddrTaken(s stmt, out map[string]bool) {
	var walkExpr func(e expr)
	walkExpr = func(e expr) {
		switch e := e.(type) {
		case *unaryExpr:
			if e.op == "&" {
				if id, ok := e.e.(*identExpr); ok {
					out[id.name] = true
				}
			}
			walkExpr(e.e)
		case *binaryExpr:
			walkExpr(e.l)
			walkExpr(e.r)
		case *assignExpr:
			walkExpr(e.l)
			walkExpr(e.r)
		case *condExpr:
			walkExpr(e.cond)
			walkExpr(e.then)
			walkExpr(e.els)
		case *castExpr:
			walkExpr(e.e)
		case *callExpr:
			for _, a := range e.args {
				walkExpr(a)
			}
		case *indexExpr:
			walkExpr(e.base)
			walkExpr(e.idx)
		case *fieldExpr:
			walkExpr(e.base)
		case *mallocExpr:
			walkExpr(e.size)
		case *reallocExpr:
			walkExpr(e.p)
			walkExpr(e.size)
		case *newExpr:
			if e.count != nil {
				walkExpr(e.count)
			}
		}
	}
	var walk func(s stmt)
	walk = func(s stmt) {
		switch s := s.(type) {
		case *blockStmt:
			for _, st := range s.stmts {
				walk(st)
			}
		case *declStmt:
			if s.init != nil {
				walkExpr(s.init)
			}
		case *exprStmt:
			walkExpr(s.e)
		case *ifStmt:
			walkExpr(s.cond)
			walk(s.then)
			if s.els_ != nil {
				walk(s.els_)
			}
		case *whileStmt:
			walkExpr(s.cond)
			walk(s.body)
		case *forStmt:
			if s.init != nil {
				walk(s.init)
			}
			if s.cond != nil {
				walkExpr(s.cond)
			}
			if s.post != nil {
				walkExpr(s.post)
			}
			walk(s.body)
		case *returnStmt:
			if s.e != nil {
				walkExpr(s.e)
			}
		}
	}
	if s != nil {
		walk(s)
	}
}

// terminated reports whether the current block already ends in a
// terminator.
func (lo *lowerer) terminated() bool {
	blk := lo.b.F.Blocks[lo.b.CurBlock()]
	if len(blk.Instrs) == 0 {
		return false
	}
	switch blk.Instrs[len(blk.Instrs)-1].Op {
	case mir.OpRet, mir.OpJmp, mir.OpBr:
		return true
	}
	return false
}

// Statements.

func (lo *lowerer) lowerBlock(b *blockStmt) {
	lo.pushScope()
	for _, s := range b.stmts {
		lo.lowerStmt(s)
	}
	lo.popScope()
}

func (lo *lowerer) lowerStmt(s stmt) {
	switch s := s.(type) {
	case *blockStmt:
		lo.lowerBlock(s)
	case *declStmt:
		lo.lowerDecl(s)
	case *exprStmt:
		lo.lowerExpr(s.e, nil)
	case *returnStmt:
		if lo.fn.ret == nil {
			if s.e != nil {
				lo.fail(s.pos, "void function returns a value")
			}
			lo.b.RetVoid()
		} else {
			if s.e == nil {
				lo.fail(s.pos, "non-void function returns nothing")
			}
			v := lo.lowerExpr(s.e, elemHint(lo.fn.ret))
			v = lo.convert(v, lo.fn.ret, s.pos)
			lo.b.Ret(v.reg)
		}
		lo.b.NewBlock("dead")
	case *ifStmt:
		cond := lo.lowerExpr(s.cond, nil)
		thenB := lo.b.Reserve("then")
		elseB := lo.b.Reserve("else")
		joinB := lo.b.Reserve("join")
		lo.b.Br(cond.reg, thenB, elseB)
		lo.b.SetBlock(thenB)
		lo.lowerStmt(s.then)
		if !lo.terminated() {
			lo.b.Jmp(joinB)
		}
		lo.b.SetBlock(elseB)
		if s.els_ != nil {
			lo.lowerStmt(s.els_)
		}
		if !lo.terminated() {
			lo.b.Jmp(joinB)
		}
		lo.b.SetBlock(joinB)
	case *whileStmt:
		head := lo.b.Reserve("while.head")
		body := lo.b.Reserve("while.body")
		done := lo.b.Reserve("while.done")
		lo.b.Jmp(head)
		lo.b.SetBlock(head)
		cond := lo.lowerExpr(s.cond, nil)
		lo.b.Br(cond.reg, body, done)
		lo.b.SetBlock(body)
		lo.breakTo = append(lo.breakTo, done)
		lo.contTo = append(lo.contTo, head)
		lo.lowerStmt(s.body)
		lo.breakTo = lo.breakTo[:len(lo.breakTo)-1]
		lo.contTo = lo.contTo[:len(lo.contTo)-1]
		if !lo.terminated() {
			lo.b.Jmp(head)
		}
		lo.b.SetBlock(done)
	case *forStmt:
		lo.pushScope()
		if s.init != nil {
			lo.lowerStmt(s.init)
		}
		head := lo.b.Reserve("for.head")
		body := lo.b.Reserve("for.body")
		post := lo.b.Reserve("for.post")
		done := lo.b.Reserve("for.done")
		lo.b.Jmp(head)
		lo.b.SetBlock(head)
		if s.cond != nil {
			cond := lo.lowerExpr(s.cond, nil)
			lo.b.Br(cond.reg, body, done)
		} else {
			lo.b.Jmp(body)
		}
		lo.b.SetBlock(body)
		lo.breakTo = append(lo.breakTo, done)
		lo.contTo = append(lo.contTo, post)
		lo.lowerStmt(s.body)
		lo.breakTo = lo.breakTo[:len(lo.breakTo)-1]
		lo.contTo = lo.contTo[:len(lo.contTo)-1]
		if !lo.terminated() {
			lo.b.Jmp(post)
		}
		lo.b.SetBlock(post)
		if s.post != nil {
			lo.lowerExpr(s.post, nil)
		}
		lo.b.Jmp(head)
		lo.b.SetBlock(done)
		lo.popScope()
	case *breakStmt:
		if len(lo.breakTo) == 0 {
			lo.fail(s.pos, "break outside loop")
		}
		lo.b.Jmp(lo.breakTo[len(lo.breakTo)-1])
		lo.b.NewBlock("dead")
	case *continueStmt:
		if len(lo.contTo) == 0 {
			lo.fail(s.pos, "continue outside loop")
		}
		lo.b.Jmp(lo.contTo[len(lo.contTo)-1])
		lo.b.NewBlock("dead")
	default:
		panic(fmt.Sprintf("cc: unhandled statement %T", s))
	}
}

func (lo *lowerer) lowerDecl(s *declStmt) {
	if lo.lookup(s.name) != nil && lo.scopes[len(lo.scopes)-1][s.name] != nil {
		lo.fail(s.pos, "redefinition of %q", s.name)
	}
	switch {
	case s.typ.Kind == ctypes.KindArray:
		if s.typ.Len == ctypes.IncompleteLen {
			lo.fail(s.pos, "local array needs a length")
		}
		addr := lo.b.Alloca(s.typ.Elem, s.typ.Len)
		lo.define(s.name, &symbol{typ: s.typ, reg: addr, isMem: true})
		if s.init != nil {
			lo.fail(s.pos, "array initialisers are not supported")
		}
	case s.typ.IsRecord():
		if !s.typ.IsComplete() {
			lo.fail(s.pos, "variable %q has incomplete type %s", s.name, s.typ)
		}
		addr := lo.b.Alloca(s.typ, 1)
		lo.define(s.name, &symbol{typ: s.typ, reg: addr, isMem: true})
		if s.init != nil {
			lo.fail(s.pos, "record initialisers are not supported")
		}
	case lo.addrTaken[s.name]:
		addr := lo.b.Alloca(s.typ, 1)
		lo.define(s.name, &symbol{typ: s.typ, reg: addr, isMem: true})
		if s.init != nil {
			v := lo.convert(lo.lowerExpr(s.init, elemHint(s.typ)), s.typ, s.pos)
			lo.b.Store(s.typ, addr, v.reg)
		}
	default:
		reg := lo.b.Reg()
		lo.define(s.name, &symbol{typ: s.typ, reg: reg})
		if s.init != nil {
			v := lo.convert(lo.lowerExpr(s.init, elemHint(s.typ)), s.typ, s.pos)
			lo.b.MovTo(reg, v.reg)
		} else {
			zero := lo.b.Const(s.typ, 0)
			lo.b.MovTo(reg, zero)
		}
	}
}

// elemHint returns the malloc-type hint for assignments into t: the
// pointee if t is a pointer (the paper's first-lvalue-usage inference).
func elemHint(t *ctypes.Type) *ctypes.Type {
	if t != nil && t.Kind == ctypes.KindPointer {
		return t.Elem
	}
	return nil
}
