// Package bugsuite is the error-injection corpus behind the Fig. 1
// capability matrix: one mini-C program per type/memory error class, each
// with a single seeded bug (or none, for the false-positive controls).
//
// The programs are written so that each modelled sanitizer's documented
// blind spot actually manifests: overflows sized to land inside or beyond
// redzones, dangling pointers that flow through memory (so metadata-
// propagating tools get their chance), allocation churn that defeats
// AddressSanitizer's quarantine before a slot is reused, and implicit
// casts that never pass a cast site.
package bugsuite

import (
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

// Class groups cases into the Fig. 1 capability columns.
type Class int

// The capability groups.
const (
	// TypeConfusion cases populate the "Types" column.
	TypeConfusion Class = iota
	// BoundsOverflow cases populate the "Bounds" column.
	BoundsOverflow
	// Temporal cases (use-after-free, reuse-after-free) populate the
	// "UAF" column.
	Temporal
	// Extra cases demonstrate behaviour outside the matrix (double free).
	Extra
	// Clean cases contain no bug: any report is a false positive.
	Clean
)

func (c Class) String() string {
	switch c {
	case TypeConfusion:
		return "Types"
	case BoundsOverflow:
		return "Bounds"
	case Temporal:
		return "UAF"
	case Extra:
		return "Extra"
	case Clean:
		return "Clean"
	}
	return "?"
}

// Case is one corpus program.
type Case struct {
	Name  string
	Class Class
	// Desc says what the bug is and which §6.1 finding it models.
	Desc string
	Src  string
	// Expect, when non-nil, pins the exact set of distinct report kinds
	// the full EffectiveSan configuration must produce for this case —
	// no more, no fewer. Cases without Expect are covered by the Fig. 1
	// capability matrix or the clean-suite controls instead.
	Expect []core.ErrorKind
}

// Program compiles the case into a fresh program/type table.
func (c *Case) Program() (*mir.Program, error) {
	return cc.Compile(c.Src, ctypes.NewTable())
}

// flush is a mini-C snippet that cycles enough allocations of an
// unrelated size class to exhaust a 1 MiB free-quarantine, so that a
// previously freed slot really is reused afterwards (defeating
// AddressSanitizer-style mitigation without perturbing the victim's own
// size class).
const flush = `
void flush_quarantine() {
    for (int i = 0; i < 6000; i++) {
        char *t = malloc(200);
        free(t);
    }
}
`

// Cases returns the corpus.
func Cases() []Case {
	return []Case{
		{
			Name:  "bad-downcast",
			Class: TypeConfusion,
			Desc: "C++ sibling downcast (the xalancbmk SchemaGrammar/DTDGrammar " +
				"confusion): allocated DTDGrammar used as SchemaGrammar",
			Src: `
class Grammar { int kind; };
class SchemaGrammar : public Grammar { int schemaInfo; };
class DTDGrammar : public Grammar { int dtdInfo; };

int main() {
    class DTDGrammar *dtd = new class DTDGrammar;
    dtd->kind = 2;
    class Grammar *g = (class Grammar *)dtd;        // fine: upcast
    class SchemaGrammar *s = (class SchemaGrammar *)g; // bad downcast
    return s->schemaInfo;
}`,
		},
		{
			Name:  "struct-cast",
			Class: TypeConfusion,
			Desc:  "reinterpreting one C struct as an unrelated one (phantom-class style)",
			Src: `
struct AHeader { int x; int y; };
struct BPacket { double d; };

int main() {
    struct AHeader *a = new struct AHeader;
    a->x = 1;
    struct BPacket *b = (struct BPacket *)a;
    b->d = 2.5;
    free(a);
    return 0;
}`,
		},
		{
			Name:  "container-cast",
			Class: TypeConfusion,
			Desc:  "casting an object to a larger container type (the stdlib++ pattern CaVer reported)",
			Src: `
struct Inner { int v; };
struct Outer { int tag; int extra; };

int main() {
    struct Inner *in = new struct Inner;
    struct Outer *out = (struct Outer *)in;
    out->tag = 7;           // within the object: pure type confusion,
                            // no spatial overflow
    free(in);
    return 0;
}`,
		},
		{
			Name:  "fundamental-confusion",
			Class: TypeConfusion,
			Desc:  "int object viewed as float through a void* detour (lbm/bzip2-style)",
			Src: `
int main() {
    int *pi = malloc(16 * sizeof(int));
    pi[0] = 42;
    void *v = (void *)pi;
    float *f = (float *)v;
    f[1] = 1.5;
    free(pi);
    return 0;
}`,
		},
		{
			Name:  "implicit-memcpy-cast",
			Class: TypeConfusion,
			Desc:  "the §2.1 implicit cast: a pointer smuggled through memcpy, no cast site at all",
			Src: `
struct Gadget { long id; long seq; };

int main() {
    struct Gadget *pa = new struct Gadget;
    pa->id = 7;
    char buf[8];
    memcpy(buf, &pa, 8);
    double *pb;
    memcpy(&pb, buf, 8);
    double d = pb[0];        // Gadget used as double[]
    free(pa);
    return (int)d;
}`,
		},
		{
			Name:  "object-overflow",
			Class: BoundsOverflow,
			Desc:  "classic contiguous heap buffer overflow past the allocation (h264ref-style)",
			Src: `
int main() {
    int *a = malloc(16 * sizeof(int));
    for (int i = 0; i < 20; i++) {   // writes a[16..19] out of bounds
        a[i] = i;
    }
    free(a);
    return 0;
}`,
		},
		{
			Name:  "redzone-skip",
			Class: BoundsOverflow,
			Desc:  "overflow that jumps past any redzone into a neighbouring live object",
			Src: `
int main() {
    int *a = malloc(60 * sizeof(int));
    int *victim = malloc(60 * sizeof(int));
    victim[0] = 1111;
    a[80] = 7;              // far out of a's bounds, inside the middle of
                            // the neighbouring object (past any redzone)
    int v = victim[0];
    free(a);
    free(victim);
    return v;
}`,
		},
		{
			Name:  "subobject-overflow",
			Class: BoundsOverflow,
			Desc:  "overflow of an interior array into a sibling field (the §1 account example; gcc/soplex findings)",
			Src: `
struct Packet { int hdr; int payload[8]; int crc; };

int main() {
    struct Packet *p = new struct Packet;
    p->crc = 77;
    int *pay = p->payload;
    for (int i = 0; i <= 8; i++) {   // i==8 lands on crc
        pay[i] = 0;
    }
    int v = p->crc;
    free(p);
    return v;
}`,
		},
		{
			Name:  "use-after-free",
			Class: Temporal,
			Desc:  "dangling pointer recovered from memory after free (perlbench-style)",
			Src: `
int *saved[1];

int main() {
    int *p = malloc(16 * sizeof(int));
    p[0] = 5;
    saved[0] = p;
    free(p);
    int *d = saved[0];
    return d[0];            // use after free
}`,
		},
		{
			Name:  "reuse-after-free-difftype",
			Class: Temporal,
			Desc:  "dangling pointer used after its slot is recycled for a different type",
			Src: flush + `
int *saved[1];

int main() {
    int *p = malloc(16 * sizeof(int));
    saved[0] = p;
    free(p);
    flush_quarantine();
    double *q = malloc(8 * sizeof(double)); // recycles p's slot
    q[0] = 1.25;
    int *d = saved[0];
    return d[0];            // reuse after free, types differ
}`,
		},
		{
			Name:  "reuse-after-free-sametype",
			Class: Temporal,
			Desc:  "dangling pointer used after its slot is recycled for the SAME type (EffectiveSan's documented miss, Fig. 1 §)",
			Src: flush + `
int *saved[1];

int main() {
    int *p = malloc(16 * sizeof(int));
    saved[0] = p;
    free(p);
    flush_quarantine();
    int *q = malloc(16 * sizeof(int));  // recycles p's slot, same type
    q[0] = 9;
    int *d = saved[0];
    return d[0];            // reuse after free, same type
}`,
		},
		{
			Name:  "uaf-hot-cache",
			Class: Extra,
			Desc: "use-after-free through a type-check site made hot before the free: " +
				"every §5.3 cache level must miss once the metadata rebinds to FREE",
			Src: `
int *saved[1];

int main() {
    int acc = 0;
    int *p = malloc(16 * sizeof(int));
    p[0] = 3;
    saved[0] = p;
    for (int i = 0; i < 64; i++) {
        int *q = saved[0];      // fresh input pointer: type-checked each round
        acc = acc + q[0];       // the check site is hot by the time of the free
    }
    free(p);
    int *d = saved[0];
    return acc + d[0];          // use after free via the same load path
}`,
		},
		{
			Name:  "reuse-after-free-hot-cache",
			Class: Extra,
			Desc: "reuse-after-free (different type) through a hot check site after the " +
				"quarantine is flushed: the recycled slot's new type id must defeat " +
				"any cached (tid, k, s) entry",
			Src: flush + `
int *saved[1];

int main() {
    int acc = 0;
    int *p = malloc(16 * sizeof(int));
    p[0] = 3;
    saved[0] = p;
    for (int i = 0; i < 64; i++) {
        int *q = saved[0];
        acc = acc + q[0];       // hot site keyed (tid_int, 0, int)
    }
    free(p);
    flush_quarantine();
    double *r = malloc(8 * sizeof(double)); // recycles p's slot, rebinding its type
    r[0] = 1.5;
    int *d = saved[0];
    return acc + d[0];          // stale pointer, stale cache key: must re-match
}`,
		},
		{
			Name:  "double-free",
			Class: Extra,
			Desc:  "freeing the same object twice",
			Src: `
int main() {
    int *p = malloc(16 * sizeof(int));
    free(p);
    free(p);
    return 0;
}`,
		},
		{
			Name:  "libc-memcpy-overlap",
			Class: Extra,
			Desc: "memcpy over self-overlapping ranges (the glibc-2.13 memcpy " +
				"direction-change bugs' trigger shape): undefined behaviour the " +
				"intrinsics layer reports while still completing the copy",
			Src: `
int main() {
    long *a = malloc(8 * 8);
    for (int i = 0; i < 8; i++) { a[i] = (long)i; }
    memcpy(a, a + 2, 6 * 8);
    long r = a[0];
    free(a);
    return (int)r;
}`,
			Expect: []core.ErrorKind{core.OverlapError},
		},
		{
			Name:  "libc-strcpy-field-overflow",
			Class: Extra,
			Desc: "strcpy overflowing a fixed-size array field into its sibling " +
				"within the same struct (the classic sprintf/strcpy header-field " +
				"smash): stays inside the allocation, so only sub-object bounds " +
				"passed through the intrinsic catch it",
			Src: `
struct LibPacket { int head[4]; long tail; };

int main() {
    struct LibPacket *p = new struct LibPacket;
    char *s = malloc(24);
    for (int i = 0; i < 20; i++) { s[i] = (char)(65 + (i & 7)); }
    s[20] = (char)0;
    p->tail = 7;
    strcpy(p->head, s);     // 21 bytes into the 16-byte head field
    long r = p->tail;
    free(s);
    free(p);
    return (int)r;
}`,
			Expect: []core.ErrorKind{core.BoundsError},
		},
		{
			Name:  "libc-free-interior",
			Class: Extra,
			Desc: "free of an interior pointer (CVE-2015-0235-era allocator abuse " +
				"shape): the low-fat header lookup rejects the free and leaves the " +
				"object live, so execution continues deterministically",
			Src: `
int main() {
    long *p = malloc(4 * 8);
    p[0] = 5;
    free(p + 1);            // rejected: not the allocation base
    long r = p[0];          // object still live
    free(p);
    return (int)r;
}`,
			Expect: []core.ErrorKind{core.BadFree},
		},
		{
			Name:  "libc-strlen-unterminated",
			Class: Extra,
			Desc: "strlen over a buffer with no NUL terminator (the Heartbleed-style " +
				"overread shape): the scan is clamped to the zeroed low-fat slot, " +
				"terminates deterministically, and the overread past the allocation " +
				"bound is reported",
			Src: `
int main() {
    char *b = malloc(12);
    memset(b, 66, 12);
    int r = (int)strlen(b);
    free(b);
    return r;
}`,
			Expect: []core.ErrorKind{core.BoundsError},
		},
		{
			Name:  "libc-qsort-cmp-oob",
			Class: Extra,
			Desc: "qsort comparator reading one element past its argument: the " +
				"comparator re-enters the instrumented interpreter, so its own " +
				"checks fire when the last element's neighbour is off the end " +
				"(odd element count keeps the overread in the slot's zeroed " +
				"padding: detected, yet deterministic and race-free)",
			Src: `
int lib_oob_cmp(long *x, long *y) {
    return (int)(x[1] - y[1]);  // off the end for the last element
}

int main() {
    long *v = malloc(5 * 8);
    v[0] = 3;
    v[1] = 1;
    v[2] = 2;
    v[3] = 0;
    v[4] = 4;
    qsort(v, 5, 8, lib_oob_cmp);
    long r = v[0];
    free(v);
    return (int)r;
}`,
			Expect: []core.ErrorKind{core.BoundsError},
		},
		{
			Name:  "libc-memcpy-failed-typecheck",
			Class: Extra,
			Desc: "memcpy source read through a pointer whose type check fails " +
				"(a struct pointer bound to a pointer-sized object) and whose " +
				"extent is too short for the copy: the failed type check is " +
				"reported, and the intrinsic's own check still reports the " +
				"source overread as bounds-error (memcpy src)",
			Src: `
struct LibA0 { int a; };
struct LibA00 { long b; };

int main() {
    struct LibA0 *pa = new struct LibA00*;
    char buf[16];
    memcpy(buf, *&pa, 10);  // 10 bytes from an 8-byte object
    return 0;
}`,
			Expect: []core.ErrorKind{core.TypeError, core.BoundsError},
		},
		{
			Name:  "static-oob",
			Class: Extra,
			Desc: "constant out-of-bounds index into a fixed-extent global: " +
				"the access can never be in bounds, and the runtime bounds " +
				"check reports it against the global that was accessed",
			Src: `
long gtab[8];

int main() {
    gtab[9] = 1;            // constant offset 72 beyond the 64-byte extent
    return (int)gtab[9];
}`,
			Expect: []core.ErrorKind{core.BoundsError},
		},
		{
			Name:  "clean-list",
			Class: Clean,
			Desc:  "correct linked-list workout (false-positive control)",
			Src: `
struct CNode { struct CNode *next; int v; };

int main() {
    struct CNode *head = null;
    for (int i = 0; i < 64; i++) {
        struct CNode *n = new struct CNode;
        n->v = i;
        n->next = head;
        head = n;
    }
    int sum = 0;
    struct CNode *it = head;
    while (it != null) {
        sum += it->v;
        it = it->next;
    }
    while (head != null) {
        struct CNode *n = head->next;
        free(head);
        head = n;
    }
    return sum;
}`,
		},
		{
			Name:  "clean-matrix",
			Class: Clean,
			Desc:  "correct nested-struct array arithmetic (false-positive control)",
			Src: `
struct Row { double cells[8]; };

int main() {
    struct Row *rows = malloc(8 * sizeof(struct Row));
    for (int r = 0; r < 8; r++) {
        for (int c = 0; c < 8; c++) {
            rows[r].cells[c] = (double)(r * c);
        }
    }
    double tr = 0.0;
    for (int r = 0; r < 8; r++) {
        tr += rows[r].cells[r];
    }
    free(rows);
    return (int)tr;
}`,
		},
		{
			Name:  "clean-strings",
			Class: Clean,
			Desc:  "correct char-buffer manipulation incl. char coercions (false-positive control)",
			Src: `
int main() {
    char *buf = malloc(256);
    memset(buf, 'x', 255);
    buf[255] = 0;
    long *words = (long *)buf;   // char[] -> long[] coercion: allowed
    long acc = 0;
    for (int i = 0; i < 32; i++) {
        acc = acc ^ words[i];
    }
    char *copy = malloc(256);
    memcpy(copy, buf, 256);
    int v = copy[10];
    free(buf);
    free(copy);
    return v + (int)(acc & 0);
}`,
		},
		{
			Name:  "clean-zero-length",
			Class: Clean,
			Desc: "zero-length local array and malloc(0) passed to a callee and " +
				"freed (false-positive control: the zero-size object's pointer " +
				"must stay inside its own slot)",
			Src: `
long sum(char *p, long n) {
    long k = 0;
    for (long i = 0; i < n; i++) { k += p[i]; }
    return k;
}

int main() {
    char buf[0];
    char *z = malloc(0);
    long k = sum(buf, 0) + sum(z, 0);
    free(z);
    return (int)k;
}`,
		},
	}
}

// ByName returns the named case, or nil.
func ByName(name string) *Case {
	for _, c := range Cases() {
		if c.Name == name {
			cc := c
			return &cc
		}
	}
	return nil
}
