package cc

import (
	"repro/internal/ctypes"
	"repro/internal/intrinsics"
	"repro/internal/mir"
)

// lvalue is an addressable location: either a memory address in a
// register (addr >= 0) or a register-resident variable (reg >= 0).
type lvalue struct {
	typ  *ctypes.Type
	addr int // address register, or -1
	reg  int // variable register, or -1
}

// lowerExpr lowers e to an rvalue. hint, when non-nil, is the element
// type context for malloc allocation-type inference (the paper's "first
// lvalue usage" analysis, §3/Example 1).
func (lo *lowerer) lowerExpr(e expr, hint *ctypes.Type) value {
	switch e := e.(type) {
	case *intLit:
		return value{e.typ, lo.b.Const(e.typ, e.v)}
	case *floatLit:
		return value{ctypes.Double, lo.b.ConstF(ctypes.Double, e.v)}
	case *nullLit:
		t := lo.tb.PointerTo(ctypes.Void)
		if hint != nil {
			t = lo.tb.PointerTo(hint)
		}
		return value{t, lo.b.Const(t, 0)}
	case *strLit:
		lo.fail(e.tok, "string literals are only valid as puts() arguments")
	case *identExpr:
		return lo.loadLValue(lo.lowerLValue(e), e.tok)
	case *indexExpr:
		return lo.loadLValue(lo.lowerLValue(e), e.tok)
	case *fieldExpr:
		return lo.loadLValue(lo.lowerLValue(e), e.tok)
	case *sizeofExpr:
		requireComplete(e.tok, e.typ, "sizeof applied to", "")
		return value{ctypes.ULong, lo.b.Const(ctypes.ULong, e.typ.Size())}
	case *unaryExpr:
		return lo.lowerUnary(e, hint)
	case *binaryExpr:
		return lo.lowerBinary(e)
	case *assignExpr:
		return lo.lowerAssign(e)
	case *condExpr:
		return lo.lowerCond(e, hint)
	case *castExpr:
		return lo.lowerCast(e)
	case *callExpr:
		return lo.lowerCall(e)
	case *mallocExpr:
		return lo.lowerMalloc(e, hint)
	case *reallocExpr:
		ptr := lo.lowerExpr(e.p, nil)
		size := lo.lowerExpr(e.size, nil)
		if ptr.typ.Kind != ctypes.KindPointer {
			lo.fail(e.tok, "realloc of non-pointer")
		}
		return value{ptr.typ, lo.b.Realloc(ptr.reg, size.reg)}
	case *newExpr:
		requireComplete(e.tok, e.typ, "new of", "")
		if e.count == nil {
			size := lo.b.Const(ctypes.ULong, e.typ.Size())
			return value{lo.tb.PointerTo(e.typ), lo.b.Malloc(e.typ, size)}
		}
		n := lo.lowerExpr(e.count, nil)
		es := lo.b.Const(ctypes.ULong, e.typ.Size())
		size := lo.b.Bin(mir.BinMul, ctypes.ULong, n.reg, es)
		return value{lo.tb.PointerTo(e.typ), lo.b.Malloc(e.typ, size)}
	}
	panic("cc: unhandled expression")
}

// lowerMalloc emits a malloc with the inferred element type (nil means
// char[], the runtime's fallback).
func (lo *lowerer) lowerMalloc(e *mallocExpr, hint *ctypes.Type) value {
	size := lo.lowerExpr(e.size, nil)
	elem := hint
	resTyp := lo.tb.PointerTo(ctypes.Void)
	if elem != nil {
		resTyp = lo.tb.PointerTo(elem)
	}
	d := lo.b.Reg()
	aux := int64(0)
	if e.legacy {
		aux = mir.MallocLegacy
	}
	lo.emit(mir.Instr{Op: mir.OpMalloc, Dst: d, A: size.reg, B: -1, C: -1,
		Aux: aux, Type: orChar(elem)})
	return value{resTyp, d}
}

func orChar(t *ctypes.Type) *ctypes.Type {
	if t == nil {
		return ctypes.Char
	}
	return t
}

// emit appends a raw instruction through the builder's current block.
func (lo *lowerer) emit(in mir.Instr) {
	blk := lo.b.F.Blocks[lo.b.CurBlock()]
	blk.Instrs = append(blk.Instrs, in)
}

// loadLValue materialises an rvalue from an lvalue, decaying arrays to
// element pointers (C semantics).
func (lo *lowerer) loadLValue(lv lvalue, tok token) value {
	if lv.typ.Kind == ctypes.KindArray {
		// Array-to-pointer decay: the address itself, typed elem*.
		if lv.addr < 0 {
			lo.fail(tok, "array value without an address")
		}
		return value{lo.tb.PointerTo(lv.typ.Elem), lv.addr}
	}
	if lv.typ.IsRecord() {
		lo.fail(tok, "record values cannot be used directly; use pointers or memcpy")
	}
	if lv.addr < 0 {
		return value{lv.typ, lv.reg}
	}
	return value{lv.typ, lo.b.Load(lv.typ, lv.addr)}
}

// lowerLValue lowers an addressable expression.
func (lo *lowerer) lowerLValue(e expr) lvalue {
	switch e := e.(type) {
	case *identExpr:
		if sym := lo.lookup(e.name); sym != nil {
			if sym.isMem {
				return lvalue{typ: sym.typ, addr: sym.reg, reg: -1}
			}
			return lvalue{typ: sym.typ, addr: -1, reg: sym.reg}
		}
		if gi := lo.prog.GlobalIndex(e.name); gi >= 0 {
			g := lo.prog.Globals[gi]
			t := g.Type
			if g.Array {
				t = lo.tb.ArrayOf(g.Type, int64(g.Count))
			}
			return lvalue{typ: t, addr: lo.b.Global(gi), reg: -1}
		}
		lo.fail(e.tok, "undefined identifier %q", e.name)
	case *unaryExpr:
		if e.op == "*" {
			v := lo.lowerExpr(e.e, nil)
			if v.typ.Kind != ctypes.KindPointer {
				lo.fail(e.tok, "dereference of non-pointer type %s", v.typ)
			}
			return lvalue{typ: v.typ.Elem, addr: v.reg, reg: -1}
		}
	case *indexExpr:
		base := lo.lowerExpr(e.base, nil)
		if base.typ.Kind != ctypes.KindPointer {
			lo.fail(e.tok, "indexing non-pointer type %s", base.typ)
		}
		idx := lo.lowerExpr(e.idx, nil)
		elem := base.typ.Elem
		requireComplete(e.tok, elem, "indexing pointer to", "")
		addr := lo.b.Index(elem, base.reg, idx.reg)
		return lvalue{typ: elem, addr: addr, reg: -1}
	case *fieldExpr:
		var rec *ctypes.Type
		var baseAddr int
		if e.arrow {
			v := lo.lowerExpr(e.base, nil)
			if v.typ.Kind != ctypes.KindPointer || !v.typ.Elem.IsRecord() {
				lo.fail(e.tok, "-> on non-record-pointer type %s", v.typ)
			}
			rec = v.typ.Elem
			baseAddr = v.reg
		} else {
			lv := lo.lowerLValue(e.base)
			if !lv.typ.IsRecord() || lv.addr < 0 {
				lo.fail(e.tok, ". on non-record value of type %s", lv.typ)
			}
			rec = lv.typ
			baseAddr = lv.addr
		}
		fieldType, addr := lo.fieldAddr(rec, baseAddr, e)
		return lvalue{typ: fieldType, addr: addr, reg: -1}
	}
	lo.fail(e.pos(), "expression is not assignable")
	return lvalue{}
}

// fieldAddr resolves a member access, searching base-class sub-objects
// (single and multiple inheritance) recursively.
func (lo *lowerer) fieldAddr(rec *ctypes.Type, baseAddr int, e *fieldExpr) (*ctypes.Type, int) {
	requireComplete(e.tok, rec, "member access on", "")
	if f, ok := rec.FieldByName(e.name); ok {
		return f.Type, lo.b.FieldAt(f.Type, baseAddr, f.Offset)
	}
	for _, f := range rec.Fields {
		if !f.IsBase {
			continue
		}
		if _, ok := f.Type.FieldByName(e.name); ok || hasFieldDeep(f.Type, e.name) {
			baseObj := lo.b.FieldAt(f.Type, baseAddr, f.Offset)
			return lo.fieldAddr(f.Type, baseObj, e)
		}
	}
	lo.fail(e.tok, "%s has no member %q", rec, e.name)
	return nil, 0
}

func hasFieldDeep(rec *ctypes.Type, name string) bool {
	if _, ok := rec.FieldByName(name); ok {
		return true
	}
	for _, f := range rec.Fields {
		if f.IsBase && hasFieldDeep(f.Type, name) {
			return true
		}
	}
	return false
}

func (lo *lowerer) lowerUnary(e *unaryExpr, hint *ctypes.Type) value {
	switch e.op {
	case "-":
		v := lo.lowerExpr(e.e, nil)
		if v.typ.IsFloat() {
			zero := lo.b.ConstF(v.typ, 0)
			return value{v.typ, lo.b.Bin(mir.BinSub, v.typ, zero, v.reg)}
		}
		zero := lo.b.Const(v.typ, 0)
		return value{v.typ, lo.b.Bin(mir.BinSub, v.typ, zero, v.reg)}
	case "!":
		v := lo.lowerExpr(e.e, nil)
		return value{ctypes.Int, lo.b.Not(v.reg)}
	case "*":
		return lo.loadLValue(lo.lowerLValue(e), e.tok)
	case "&":
		lv := lo.lowerLValue(e.e)
		if lv.addr < 0 {
			lo.fail(e.tok, "cannot take the address of a register variable")
		}
		t := lv.typ
		if t.Kind == ctypes.KindArray {
			// &arr has type elem(*)[N]; flatten to elem* for simplicity.
			t = t.Elem
		}
		return value{lo.tb.PointerTo(t), lv.addr}
	}
	panic("cc: unhandled unary op " + e.op)
}

func (lo *lowerer) lowerBinary(e *binaryExpr) value {
	switch e.op {
	case "&&", "||":
		return lo.lowerShortCircuit(e)
	}
	l := lo.lowerExpr(e.l, nil)
	r := lo.lowerExpr(e.r, nil)

	// Pointer arithmetic and comparisons.
	lp := l.typ.Kind == ctypes.KindPointer
	rp := r.typ.Kind == ctypes.KindPointer
	switch {
	case (lp || rp) && isCmpOp(e.op):
		return value{ctypes.Int, lo.b.Cmp(cmpKind(e.op), ctypes.ULong, l.reg, r.reg)}
	case lp && !rp && (e.op == "+" || e.op == "-"):
		elem := l.typ.Elem
		requireComplete(e.tok, elem, "arithmetic on pointer to", "")
		idx := r.reg
		if e.op == "-" {
			zero := lo.b.Const(ctypes.Long, 0)
			idx = lo.b.Bin(mir.BinSub, ctypes.Long, zero, idx)
		}
		return value{l.typ, lo.b.Index(elem, l.reg, idx)}
	case !lp && rp && e.op == "+":
		elem := r.typ.Elem
		requireComplete(e.tok, elem, "arithmetic on pointer to", "")
		return value{r.typ, lo.b.Index(elem, r.reg, l.reg)}
	case lp && rp && e.op == "-":
		if l.typ.Elem != r.typ.Elem {
			lo.fail(e.tok, "subtraction of incompatible pointers")
		}
		requireComplete(e.tok, l.typ.Elem, "arithmetic on pointer to", "")
		diff := lo.b.Bin(mir.BinSub, ctypes.Long, l.reg, r.reg)
		es := lo.b.Const(ctypes.Long, l.typ.Elem.Size())
		return value{ctypes.Long, lo.b.Bin(mir.BinDiv, ctypes.Long, diff, es)}
	case lp || rp:
		lo.fail(e.tok, "invalid pointer operation %q", e.op)
	}

	common := arithCommon(l.typ, r.typ)
	l = lo.convert(l, common, e.tok)
	r = lo.convert(r, common, e.tok)
	if isCmpOp(e.op) {
		return value{ctypes.Int, lo.b.Cmp(cmpKind(e.op), common, l.reg, r.reg)}
	}
	return value{common, lo.b.Bin(binKind(e.op, lo, e.tok), common, l.reg, r.reg)}
}

func (lo *lowerer) lowerShortCircuit(e *binaryExpr) value {
	res := lo.b.Reg()
	rhs := lo.b.Reserve("sc.rhs")
	fixed := lo.b.Reserve("sc.fixed")
	join := lo.b.Reserve("sc.join")
	l := lo.lowerExpr(e.l, nil)
	if e.op == "&&" {
		lo.b.Br(l.reg, rhs, fixed) // false -> result 0
	} else {
		lo.b.Br(l.reg, fixed, rhs) // true -> result 1
	}
	lo.b.SetBlock(fixed)
	var fixedVal int64
	if e.op == "||" {
		fixedVal = 1
	}
	c := lo.b.Const(ctypes.Int, fixedVal)
	lo.b.MovTo(res, c)
	lo.b.Jmp(join)
	lo.b.SetBlock(rhs)
	r := lo.lowerExpr(e.r, nil)
	zero := lo.b.Const(ctypes.Int, 0)
	norm := lo.b.Cmp(mir.CmpNe, ctypes.ULong, r.reg, zero)
	lo.b.MovTo(res, norm)
	lo.b.Jmp(join)
	lo.b.SetBlock(join)
	return value{ctypes.Int, res}
}

func (lo *lowerer) lowerAssign(e *assignExpr) value {
	lv := lo.lowerLValue(e.l)
	if e.op != "=" {
		// Compound assignment: desugar to load-op-store on the same
		// location.
		cur := lo.loadLValue(lv, e.tok)
		r := lo.lowerExpr(e.r, nil)
		var nv value
		if cur.typ.Kind == ctypes.KindPointer {
			if e.op != "+=" && e.op != "-=" {
				lo.fail(e.tok, "invalid pointer compound assignment %q", e.op)
			}
			requireComplete(e.tok, cur.typ.Elem, "arithmetic on pointer to", "")
			idx := r.reg
			if e.op == "-=" {
				zero := lo.b.Const(ctypes.Long, 0)
				idx = lo.b.Bin(mir.BinSub, ctypes.Long, zero, idx)
			}
			nv = value{cur.typ, lo.b.Index(cur.typ.Elem, cur.reg, idx)}
		} else {
			common := arithCommon(cur.typ, r.typ)
			cl := lo.convert(cur, common, e.tok)
			cr := lo.convert(r, common, e.tok)
			op := map[string]mir.BinKind{"+=": mir.BinAdd, "-=": mir.BinSub,
				"*=": mir.BinMul, "/=": mir.BinDiv}[e.op]
			nv = lo.convert(value{common, lo.b.Bin(op, common, cl.reg, cr.reg)}, cur.typ, e.tok)
		}
		lo.storeLValue(lv, nv, e.tok)
		return nv
	}
	r := lo.lowerExpr(e.r, elemHint(lv.typ))
	r = lo.convert(r, lv.typ, e.tok)
	lo.storeLValue(lv, r, e.tok)
	return r
}

func (lo *lowerer) storeLValue(lv lvalue, v value, tok token) {
	if lv.addr < 0 {
		lo.b.MovTo(lv.reg, v.reg)
		return
	}
	if !lv.typ.IsScalar() {
		lo.fail(tok, "cannot assign to value of type %s", lv.typ)
	}
	lo.b.Store(lv.typ, lv.addr, v.reg)
}

// lowerCond lowers the ternary operator with short-circuit evaluation;
// both arms are converted to a common type.
func (lo *lowerer) lowerCond(e *condExpr, hint *ctypes.Type) value {
	cond := lo.lowerExpr(e.cond, nil)
	res := lo.b.Reg()
	thenB := lo.b.Reserve("cond.then")
	elseB := lo.b.Reserve("cond.else")
	joinB := lo.b.Reserve("cond.join")
	lo.b.Br(cond.reg, thenB, elseB)

	lo.b.SetBlock(thenB)
	tv := lo.lowerExpr(e.then, hint)
	thenEnd := lo.b.CurBlock()

	lo.b.SetBlock(elseB)
	ev := lo.lowerExpr(e.els, hint)

	// Determine the common type from both arms.
	var common *ctypes.Type
	switch {
	case tv.typ == ev.typ:
		common = tv.typ
	case tv.typ.Kind == ctypes.KindPointer || ev.typ.Kind == ctypes.KindPointer:
		common = tv.typ
		if common.Kind != ctypes.KindPointer {
			common = ev.typ
		}
	default:
		common = arithCommon(tv.typ, ev.typ)
	}
	ev = lo.convert(ev, common, e.tok)
	lo.b.MovTo(res, ev.reg)
	lo.b.Jmp(joinB)

	lo.b.SetBlock(thenEnd)
	tv = lo.convert(tv, common, e.tok)
	lo.b.MovTo(res, tv.reg)
	lo.b.Jmp(joinB)

	lo.b.SetBlock(joinB)
	return value{common, res}
}

func (lo *lowerer) lowerCast(e *castExpr) value {
	requireComplete(e.tok, e.typ, "cast to", "")
	v := lo.lowerExpr(e.e, elemHint(e.typ))
	d := lo.b.Cast(e.typ, v.typ, v.reg)
	return value{e.typ, d}
}

func (lo *lowerer) lowerCall(e *callExpr) value {
	switch e.name {
	case "free", "delete":
		lo.wantArgs(e, 1)
		v := lo.lowerExpr(e.args[0], nil)
		lo.b.Free(v.reg)
		return value{ctypes.Int, lo.b.Const(ctypes.Int, 0)}
	case "memcpy", "memset":
		// Lowered as introspection-checked libc intrinsics (package
		// intrinsics), not the raw OpMemcpy/OpMemset builtins — same
		// operation, but checked calls introspect their argument bounds.
		return lo.lowerIntrinsic(e, intrinsics.Lookup(e.name))
	case "print":
		lo.wantArgs(e, 1)
		v := lo.lowerExpr(e.args[0], nil)
		lo.b.Print(v.typ, v.reg)
		return v
	case "puts":
		lo.wantArgs(e, 1)
		s, ok := e.args[0].(*strLit)
		if !ok {
			lo.fail(e.tok, "puts requires a string literal")
		}
		lo.b.Puts(s.s)
		return value{ctypes.Int, lo.b.Const(ctypes.Int, 0)}
	}

	fn, ok := lo.fns[e.name]
	if !ok {
		// Program functions shadow intrinsics; an unshadowed libc name
		// lowers to an intrinsic call.
		if d := intrinsics.Lookup(e.name); d != nil {
			return lo.lowerIntrinsic(e, d)
		}
		lo.fail(e.tok, "call to undefined function %q", e.name)
	}
	if len(e.args) != len(fn.params) {
		lo.fail(e.tok, "%q expects %d arguments, got %d", e.name, len(fn.params), len(e.args))
	}
	args := make([]int, len(e.args))
	for i, a := range e.args {
		av := lo.lowerExpr(a, elemHint(fn.params[i].typ))
		av = lo.convert(av, fn.params[i].typ, e.tok)
		args[i] = av.reg
	}
	if fn.ret == nil {
		lo.b.CallV(e.name, args...)
		return value{ctypes.Int, lo.b.Const(ctypes.Int, 0)}
	}
	return value{fn.ret, lo.b.Call(e.name, args...)}
}

// lowerIntrinsic lowers a call to a libc intrinsic (package intrinsics)
// not shadowed by a program function. C's "returns dst" contract for
// the copy family is resolved here by reusing the first argument's
// value, keeping the MIR-level calls void; strlen genuinely returns a
// value; qsort's comparator must be the name of a defined two-argument
// function and travels to the interpreter in the call's Str field.
func (lo *lowerer) lowerIntrinsic(e *callExpr, d *intrinsics.Desc) value {
	if d.NeedsCmp {
		lo.wantArgs(e, d.NumArgs+1)
		id, ok := e.args[d.NumArgs].(*identExpr)
		if !ok {
			lo.fail(e.tok, "%s comparator must be a function name", e.name)
		}
		cmp, ok := lo.fns[id.name]
		if !ok || len(cmp.params) != 2 || cmp.ret == nil {
			lo.fail(e.tok, "%s comparator %q must be a defined two-argument function returning a value",
				e.name, id.name)
		}
		args := make([]int, d.NumArgs)
		for i := 0; i < d.NumArgs; i++ {
			args[i] = lo.lowerExpr(e.args[i], nil).reg
		}
		lo.b.IntrinsicCmp(e.name, id.name, args...)
		return value{ctypes.Int, lo.b.Const(ctypes.Int, 0)}
	}
	lo.wantArgs(e, d.NumArgs)
	vals := make([]value, d.NumArgs)
	args := make([]int, d.NumArgs)
	for i := range e.args {
		vals[i] = lo.lowerExpr(e.args[i], nil)
		args[i] = vals[i].reg
	}
	if d.Ret != nil {
		return value{d.Ret, lo.b.Call(e.name, args...)}
	}
	lo.b.CallV(e.name, args...)
	return vals[0]
}

func (lo *lowerer) wantArgs(e *callExpr, n int) {
	if len(e.args) != n {
		lo.fail(e.tok, "%s expects %d arguments, got %d", e.name, n, len(e.args))
	}
}

// convert implicitly converts v to type t. Pointer-to-pointer
// conversions are free retypes (no cast instruction, hence no dynamic
// check: EffectiveSan checks uses, not conversions); scalar conversions
// emit value casts.
func (lo *lowerer) convert(v value, t *ctypes.Type, tok token) value {
	if v.typ == t || t == nil {
		return v
	}
	vp := v.typ.Kind == ctypes.KindPointer
	tp := t.Kind == ctypes.KindPointer
	switch {
	case vp && tp:
		return value{t, v.reg}
	case vp && t.IsInteger() || tp && v.typ.IsInteger():
		// Pointer <-> integer conversions without an explicit cast are
		// accepted (workloads use them for hashing); the value is reused.
		return value{t, v.reg}
	case v.typ.IsScalar() && t.IsScalar():
		return value{t, lo.b.Cast(t, v.typ, v.reg)}
	}
	lo.fail(tok, "cannot convert %s to %s", v.typ, t)
	return value{}
}

// arithCommon implements (simplified) usual arithmetic conversions.
func arithCommon(a, b *ctypes.Type) *ctypes.Type {
	if a.Kind == ctypes.KindLongDouble || b.Kind == ctypes.KindLongDouble {
		return ctypes.LongDouble
	}
	if a.Kind == ctypes.KindDouble || b.Kind == ctypes.KindDouble {
		return ctypes.Double
	}
	if a.Kind == ctypes.KindFloat || b.Kind == ctypes.KindFloat {
		return ctypes.Float
	}
	// Integer promotion to at least int, then widest wins; unsigned wins
	// ties.
	rank := func(t *ctypes.Type) int64 {
		s := t.Size()
		if s < 4 {
			s = 4
		}
		return s
	}
	ra, rb := rank(a), rank(b)
	size := max(ra, rb)
	unsigned := (!a.IsSigned() && ra == size) || (!b.IsSigned() && rb == size)
	switch {
	case size == 4 && unsigned:
		return ctypes.UInt
	case size == 4:
		return ctypes.Int
	case unsigned:
		return ctypes.ULong
	default:
		return ctypes.Long
	}
}

func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func cmpKind(op string) mir.CmpKind {
	switch op {
	case "==":
		return mir.CmpEq
	case "!=":
		return mir.CmpNe
	case "<":
		return mir.CmpLt
	case "<=":
		return mir.CmpLe
	case ">":
		return mir.CmpGt
	}
	return mir.CmpGe
}

func binKind(op string, lo *lowerer, tok token) mir.BinKind {
	switch op {
	case "+":
		return mir.BinAdd
	case "-":
		return mir.BinSub
	case "*":
		return mir.BinMul
	case "/":
		return mir.BinDiv
	case "%":
		return mir.BinRem
	case "&":
		return mir.BinAnd
	case "|":
		return mir.BinOr
	case "^":
		return mir.BinXor
	case "<<":
		return mir.BinShl
	case ">>":
		return mir.BinShr
	}
	lo.fail(tok, "unsupported binary operator %q", op)
	return 0
}
