package cc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
)

// run compiles src, executes fn uninstrumented, and returns the result.
func run(t *testing.T, src, fn string, args ...uint64) uint64 {
	t.Helper()
	prog, err := Compile(src, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	in, err := mir.New(prog, mir.Options{Env: mir.NewPlainEnv(nil)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run(fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// runEff compiles src, instruments it fully, executes main under the
// EffectiveSan runtime, and returns the runtime.
func runEff(t *testing.T, src string) *core.Runtime {
	t.Helper()
	tb := ctypes.NewTable()
	prog, err := Compile(src, tb)
	if err != nil {
		t.Fatal(err)
	}
	ip, _ := instrument.Instrument(prog, instrument.Options{Variant: instrument.Full})
	rt := core.NewRuntime(core.Options{Types: tb})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestBasicArithmetic(t *testing.T) {
	src := `
int main() {
    int a = 6;
    int b = 7;
    return a * b - 2;
}`
	if got := run(t, src, "main"); got != 40 {
		t.Fatalf("main() = %d, want 40", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
    }
    return steps;
}`
	if got := run(t, src, "collatz", 27); got != 111 {
		t.Fatalf("collatz(27) = %d, want 111", got)
	}
}

func TestForLoopAndCompound(t *testing.T) {
	src := `
int main() {
    int s = 0;
    for (int i = 1; i <= 10; i++) { s += i; }
    return s;
}`
	if got := run(t, src, "main"); got != 55 {
		t.Fatalf("main() = %d, want 55", got)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
int main() {
    int s = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 10) { break; }
        s += i;
    }
    return s;
}`
	if got := run(t, src, "main"); got != 1+3+5+7+9 {
		t.Fatalf("main() = %d, want 25", got)
	}
}

func TestRecursionAndCalls(t *testing.T) {
	src := `
long fib(long n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}`
	if got := run(t, src, "fib", 15); got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestStructsAndPointers(t *testing.T) {
	src := `
struct Point { int x; int y; };

int main() {
    struct Point p;
    p.x = 3;
    p.y = 4;
    struct Point *q = &p;
    return q->x * q->x + q->y * q->y;
}`
	if got := run(t, src, "main"); got != 25 {
		t.Fatalf("main() = %d, want 25", got)
	}
}

func TestLinkedList(t *testing.T) {
	src := `
struct node { struct node *next; int v; };

int main() {
    struct node *head = null;
    for (int i = 0; i < 10; i++) {
        struct node *n = new struct node;
        n->v = i;
        n->next = head;
        head = n;
    }
    int sum = 0;
    while (head != null) {
        sum += head->v;
        head = head->next;
    }
    return sum;
}`
	if got := run(t, src, "main"); got != 45 {
		t.Fatalf("main() = %d, want 45", got)
	}
}

func TestArraysAndGlobals(t *testing.T) {
	src := `
int table[16];

int main() {
    for (int i = 0; i < 16; i++) { table[i] = i * i; }
    int local[4];
    local[0] = table[3];
    local[1] = table[4];
    return local[0] + local[1];
}`
	if got := run(t, src, "main"); got != 25 {
		t.Fatalf("main() = %d, want 25", got)
	}
}

func TestMallocTypeInference(t *testing.T) {
	// Both declaration-init and cast contexts must type the allocation
	// (the paper's Example 1 analysis).
	tb := ctypes.NewTable()
	src := `
struct T { float f; int x; };

int main() {
    struct T *r = malloc(sizeof(struct T));
    struct T *s = (struct T *)malloc(100 * sizeof(struct T));
    int *u = malloc(4 * sizeof(int));
    r->x = 1; s->x = 2; u[0] = 3;
    return r->x + s->x + u[0];
}`
	prog, err := Compile(src, tb)
	if err != nil {
		t.Fatal(err)
	}
	T := tb.Lookup(ctypes.KindStruct, "T")
	var mallocTypes []*ctypes.Type
	for _, b := range prog.Funcs["main"].Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == mir.OpMalloc {
				mallocTypes = append(mallocTypes, ins.Type)
			}
		}
	}
	if len(mallocTypes) != 3 {
		t.Fatalf("found %d mallocs, want 3", len(mallocTypes))
	}
	if mallocTypes[0] != T || mallocTypes[1] != T || mallocTypes[2] != ctypes.Int {
		t.Fatalf("malloc types = %v, want [struct T, struct T, int]", mallocTypes)
	}
	if got := run(t, src, "main"); got != 6 {
		t.Fatalf("main() = %d, want 6", got)
	}
}

func TestInheritanceMemberAccess(t *testing.T) {
	src := `
class Base { int id; };
class Derived : public Base { int extra; };

int main() {
    Derived_make();
    return 0;
}
void Derived_make() {
    class Derived d;
    d.id = 7;      // member of the base sub-object
    d.extra = 35;
    print(d.id + d.extra);
}`
	prog, err := Compile(src, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in, err := mir.New(prog, mir.Options{Env: mir.NewPlainEnv(nil), Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "42" {
		t.Fatalf("output = %q, want 42", got)
	}
}

func TestUnions(t *testing.T) {
	src := `
union Bits { float f; unsigned int u; };

int main() {
    union Bits b;
    b.f = 1.0;
    if (b.u == 1065353216) { return 1; } // 0x3f800000
    return 0;
}`
	if got := run(t, src, "main"); got != 1 {
		t.Fatalf("main() = %d, want 1 (union type punning)", got)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
int hits;

int bump() { hits++; return 1; }

int main() {
    hits = 0;
    int a = 0 && bump(); // bump not called
    int b = 1 || bump(); // bump not called
    int c = 1 && bump(); // called
    return hits * 100 + a * 10 + b + c;
}`
	if got := run(t, src, "main"); got != 102 {
		t.Fatalf("main() = %d, want 102", got)
	}
}

func TestPointerArithmetic(t *testing.T) {
	src := `
int main() {
    int *a = malloc(10 * sizeof(int));
    for (int i = 0; i < 10; i++) { *(a + i) = i; }
    int *p = a + 9;
    long n = p - a;        // 9 elements
    int v = *(p - 4);      // a[5]
    free(a);
    return n * 10 + v;
}`
	if got := run(t, src, "main"); got != 95 {
		t.Fatalf("main() = %d, want 95", got)
	}
}

func TestFloatsAndCasts(t *testing.T) {
	src := `
int main() {
    double d = 2.5;
    float f = (float)d;
    int i = (int)(f * 4.0);
    return i;
}`
	if got := run(t, src, "main"); got != 10 {
		t.Fatalf("main() = %d, want 10", got)
	}
}

func TestSizeof(t *testing.T) {
	src := `
struct S { int a[3]; char *s; };

int main() {
    return sizeof(struct S) * 100 + sizeof(int) * 10 + sizeof(char);
}`
	if got := run(t, src, "main"); got != 24*100+4*10+1 {
		t.Fatalf("main() = %d, want 2441", got)
	}
}

func TestAddressTakenLocals(t *testing.T) {
	src := `
void set(int *p, int v) { *p = v; }

int main() {
    int x = 0;
    set(&x, 41);
    x++;
    return x;
}`
	if got := run(t, src, "main"); got != 42 {
		t.Fatalf("main() = %d, want 42", got)
	}
}

func TestMemcpyImplicitCast(t *testing.T) {
	// The §2.1 implicit-cast example: copying a pointer through a char
	// buffer with memcpy. Type errors surface at USE, not at the copy.
	src := `
int main() {
    int *pa = malloc(4 * sizeof(int));
    pa[0] = 77;
    char buf[8];
    memcpy(buf, &pa, 8);
    int *pb;
    memcpy(&pb, buf, 8);
    int v = pb[0];
    free(pa);
    return v;
}`
	rt := runEff(t, src)
	if rt.Reporter.Total() != 0 {
		t.Fatalf("well-typed memcpy round-trip must be clean:\n%s", rt.Reporter.Log())
	}
	if got := run(t, src, "main"); got != 77 {
		t.Fatalf("main() = %d, want 77", got)
	}
}

func TestEffDetectsBadCast(t *testing.T) {
	src := `
struct A { int x; };
struct B { float y; };

int main() {
    struct A *a = new struct A;
    struct B *b = (struct B *)a;
    b->y = 1.5;     // type confusion, caught at use
    free(a);
    return 0;
}`
	rt := runEff(t, src)
	if rt.Reporter.IssuesByKind()[core.TypeError] != 1 {
		t.Fatalf("bad cast not caught:\n%s", rt.Reporter.Log())
	}
}

func TestEffDetectsUAF(t *testing.T) {
	// Note the shape: the dangling pointer crosses a function boundary,
	// so rule 3(a) re-checks it and finds the FREE type. A use through a
	// register-resident pointer with no intervening input event keeps its
	// stale bounds — the incompleteness §4 documents ("the Figure 3
	// schema is not designed to be complete with respect to
	// use-after-free errors").
	src := `
int use(int *p) { return p[0]; }

int main() {
    int *p = malloc(8 * sizeof(int));
    free(p);
    return use(p);  // use after free, checked at function entry
}`
	rt := runEff(t, src)
	if rt.Reporter.IssuesByKind()[core.UseAfterFree] == 0 {
		t.Fatalf("UAF not caught:\n%s", rt.Reporter.Log())
	}
}

func TestLegacyMallocUnchecked(t *testing.T) {
	src := `
int main() {
    int *p = (int *)legacy_malloc(4 * sizeof(int));
    p[0] = 1;
    float *q = (float *)p;   // would be confusion on a typed object
    q[0] = 2.0;
    return 0;
}`
	rt := runEff(t, src)
	if rt.Reporter.Total() != 0 {
		t.Fatalf("legacy pointers must never error:\n%s", rt.Reporter.Log())
	}
	if rt.Stats().LegacyTypeChecks == 0 {
		t.Fatal("legacy checks not counted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int main( { return 0; }`,
		`int main() { return x; }`,
		`int main() { foo(); }`,
		`int main() { int x = "s"; }`,
		`struct S { int x; }; struct S { int y; };`,
		`int main() { break; }`,
		`void f() { return 1; }`,
		`int f(int a, int a2) { return g(); }`,
	}
	for _, src := range cases {
		if _, err := Compile(src, ctypes.NewTable()); err == nil {
			t.Errorf("Compile accepted bad program: %s", src)
		}
	}
}

// TestIncompleteObjectTypes: declaring, allocating or taking sizeof of
// an object whose type never gets a definition is a diagnostic, not a
// panic in the frontend or in a later pass.
func TestIncompleteObjectTypes(t *testing.T) {
	cases := []string{
		`int main(){ struct A a; return 0; }`,
		`int A(){{new struct A;}}`,
		`int main(){ struct A *p = new struct A[2]; return 0; }`,
		`int main(){ return (int)sizeof(struct A); }`,
		`struct A g; int main(){ return 0; }`,
		`int main(){ struct A a[2]; return 0; }`,
		`struct A g[2][2]; int main(){ return 0; }`,
		`struct S { int n; struct A tail[]; }; int main(){ return 0; }`,
	}
	for _, src := range cases {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Compile panicked on %s: %v", src, r)
				}
			}()
			_, err = Compile(src, ctypes.NewTable())
		}()
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Compile(%s) = %v, want a ParseError", src, err)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
int main() {
    /* block
       comment */
    return 7; // trailing
}`
	if got := run(t, src, "main"); got != 7 {
		t.Fatalf("main() = %d, want 7", got)
	}
}

func TestCharLiteralsAndHex(t *testing.T) {
	src := `
int main() {
    char c = 'A';
    int h = 0x10;
    return c + h;
}`
	if got := run(t, src, "main"); got != 65+16 {
		t.Fatalf("main() = %d, want 81", got)
	}
}

func TestNestedStructsAndArrays(t *testing.T) {
	src := `
struct Inner { int vals[4]; };
struct Outer { struct Inner rows[3]; int tag; };

int main() {
    struct Outer o;
    for (int r = 0; r < 3; r++) {
        for (int c = 0; c < 4; c++) {
            o.rows[r].vals[c] = r * 10 + c;
        }
    }
    o.tag = 1;
    return o.rows[2].vals[3] + o.tag;
}`
	if got := run(t, src, "main"); got != 24 {
		t.Fatalf("main() = %d, want 24", got)
	}
}

func TestMultiUnit(t *testing.T) {
	tb := ctypes.NewTable()
	prog := mir.NewProgram(tb)
	if err := CompileInto(`int helper(int x) { return x * 2; }`, prog); err != nil {
		t.Fatal(err)
	}
	if err := CompileInto(`int main2() { return helper2(21); }
int helper2(int x) { return x + 21; }`, prog); err != nil {
		t.Fatal(err)
	}
	in, err := mir.New(prog, mir.Options{Env: mir.NewPlainEnv(nil)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run("main2")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("main2() = %d, want 42", v)
	}
}

func TestRealloc(t *testing.T) {
	src := `
int main() {
    int *a = malloc(4 * sizeof(int));
    a[3] = 99;
    a = (int *)realloc(a, 8 * sizeof(int));
    a[7] = 1;
    int v = a[3];
    free(a);
    return v;
}`
	if got := run(t, src, "main"); got != 99 {
		t.Fatalf("main() = %d, want 99", got)
	}
}

func TestTernaryOperator(t *testing.T) {
	src := `
int max3(int a, int b, int c) {
    int m = a > b ? a : b;
    return m > c ? m : c;
}`
	if got := run(t, src, "max3", 3, 9, 5); got != 9 {
		t.Fatalf("max3(3,9,5) = %d, want 9", got)
	}
}

func TestTernaryShortCircuits(t *testing.T) {
	// Only the selected arm is evaluated.
	src := `
int hits2;
int bump2() { hits2++; return 7; }

int main() {
    hits2 = 0;
    int a = 1 ? 3 : bump2();   // bump2 not called
    int b = 0 ? bump2() : 4;   // bump2 not called
    int c = 0 ? 9 : bump2();   // called
    return hits2 * 100 + a + b + c;
}`
	if got := run(t, src, "main"); got != 100+3+4+7 {
		t.Fatalf("main() = %d, want 114", got)
	}
}

func TestTernaryNestedAndMixedTypes(t *testing.T) {
	src := `
int main() {
    double d = 1 ? 2.5 : 1;   // arms convert to double
    int x = 5;
    int y = x > 3 ? x > 4 ? 2 : 1 : 0;   // right-associative nesting
    return (int)(d * 2.0) + y;
}`
	if got := run(t, src, "main"); got != 5+2 {
		t.Fatalf("main() = %d, want 7", got)
	}
}

func TestTernaryPointers(t *testing.T) {
	src := `
int main() {
    int *a = malloc(4 * sizeof(int));
    int *b = malloc(4 * sizeof(int));
    a[0] = 10;
    b[0] = 20;
    int pick = 1;
    int *p = pick ? a : b;
    int v = p[0];
    free(a);
    free(b);
    return v;
}`
	if got := run(t, src, "main"); got != 10 {
		t.Fatalf("main() = %d, want 10", got)
	}
}
