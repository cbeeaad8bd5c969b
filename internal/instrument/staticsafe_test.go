package instrument

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

func compileStatic(t *testing.T, src string) *mir.Program {
	t.Helper()
	p, err := cc.Compile(src, ctypes.NewTable())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// countProgOps returns the number of instructions with the given op across
// the whole program.
func countProgOps(p *mir.Program, ops ...mir.Op) int {
	want := map[mir.Op]bool{}
	for _, o := range ops {
		want[o] = true
	}
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if want[b.Instrs[i].Op] {
					n++
				}
			}
		}
	}
	return n
}

// TestStaticElideGlobalWalk: a provably-bounded interprocedural walk
// over a constant-extent global is clean, so the analysis must flag
// none of its checks STATIC-UNSAFE.
func TestStaticElideGlobalWalk(t *testing.T) {
	src := `
long tab[16];

long walk(long *p, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        p[i] = p[i] + 1;
        acc += p[i];
    }
    return acc;
}

int main() {
    long acc = 0;
    acc += walk(tab, 16);
    return (int)acc;
}
`
	prog := compileStatic(t, src)
	if diags := StaticDiagnostics(prog, Options{Variant: Full, StaticEntry: "main"}); len(diags) != 0 {
		t.Fatalf("clean program flagged UNSAFE: %+v", diags)
	}
}

// TestStaticUnsafeDiagnostic: a constant access provably beyond a
// global's extent is classified STATIC-UNSAFE and surfaced through
// StaticDiagnostics with a populated reason, while Instrument keeps the
// check (the runtime report must stay byte-identical).
func TestStaticUnsafeDiagnostic(t *testing.T) {
	src := `
long gtab[8];

int main() {
    gtab[9] = 1;
    return (int)gtab[9];
}
`
	prog := compileStatic(t, src)
	opts := Options{Variant: Full, StaticEntry: "main"}
	diags := StaticDiagnostics(prog, opts)
	if len(diags) == 0 {
		t.Fatal("out-of-bounds constant access not flagged")
	}
	for _, d := range diags {
		if d.Func == "" || d.Kind == "" || d.Reason == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if !strings.Contains(d.Reason, "gtab") && d.Kind != "escape" {
			t.Errorf("reason does not name the allocation: %+v", d)
		}
	}
	// Detection is untouched: the UNSAFE checks survive in the output.
	out, _ := Instrument(prog, opts)
	if n := countProgOps(out, mir.OpBoundsCheck); n == 0 {
		t.Error("UNSAFE bounds checks were deleted; they must be kept")
	}
}

// TestStaticElideFreedIsUnknown: provenance that reaches free() is
// mortal, so accesses through a freed-at-some-point allocation stay
// UNKNOWN; on this clean program none may be flagged STATIC-UNSAFE.
func TestStaticElideFreedIsUnknown(t *testing.T) {
	src := `
long use(long *p, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) { acc += p[i]; }
    return acc;
}

int main() {
    long *h = malloc(4 * sizeof(long));
    h[0] = 1;
    long acc = use(h, 4);
    free(h);
    return (int)acc;
}
`
	prog := compileStatic(t, src)
	if diags := StaticDiagnostics(prog, Options{Variant: Full, StaticEntry: "main"}); len(diags) != 0 {
		t.Fatalf("clean program flagged UNSAFE: %+v", diags)
	}
}
