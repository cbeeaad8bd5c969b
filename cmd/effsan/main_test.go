package main

import (
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/sanitizers"
)

// findCase pulls one named case out of the bugsuite corpus.
func findCase(t *testing.T, name string) *bugsuite.Case {
	t.Helper()
	for _, c := range bugsuite.Cases() {
		if c.Name == name {
			return &c
		}
	}
	t.Fatalf("bugsuite case %q missing", name)
	return nil
}

// TestWarnStaticFlagsBugsuiteCase drives the -warn-static compile-only
// mode over the bugsuite's static-oob case: the constant out-of-bounds
// global access must produce at least one diagnostic naming the
// allocation, with exit code 1; every printed [site N] must be the
// runtime site ID of that check; and the runtime report for the same
// program must be unchanged (the flagged checks are kept, not deleted).
func TestWarnStaticFlagsBugsuiteCase(t *testing.T) {
	c := findCase(t, "static-oob")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := runWarnStatic(prog, "main", &out); code != 1 {
		t.Fatalf("exit code %d, want 1; output:\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "warning:") || !strings.Contains(text, "always fails") {
		t.Errorf("diagnostic text malformed:\n%s", text)
	}
	if !strings.Contains(text, "gtab") {
		t.Errorf("diagnostic does not name the overflowed allocation:\n%s", text)
	}
	if !strings.Contains(text, "main") {
		t.Errorf("diagnostic does not name the containing function:\n%s", text)
	}
	checkSiteIDs(t, prog, text)

	// static-oob flags only bounds checks, which carry no site ID; a
	// cast 16 bytes before a global is a type check that always fails,
	// so its [site N] must name the runtime ID too.
	castProg, err := cc.Compile(`
long gtab[8];

int main() {
    char *c = (char *)gtab;
    long *q = (long *)(c - 16);
    return (int)q[0];
}
`, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := runWarnStatic(castProg, "main", &out); code != 1 {
		t.Fatalf("cast program: exit code %d, want 1; output:\n%s", code, out.String())
	}
	if checkSiteIDs(t, castProg, out.String()) == 0 {
		t.Errorf("no [site N] printed for the always-failing type check:\n%s", out.String())
	}

	// The runtime report is byte-identical to the case's pinned Expect:
	// -warn-static surfaces the site at compile time but the check stays.
	prog2, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sanitizers.ToolEffectiveSan.Exec(prog2, "main", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[core.ErrorKind]bool{}
	for _, is := range res.Reporter.Issues() {
		kinds[is.Kind] = true
	}
	for _, k := range c.Expect {
		if !kinds[k] {
			t.Errorf("runtime run missed %s (issues: %v)", k, res.Reporter.Issues())
		}
	}
}

var warnLine = regexp.MustCompile(`^(.*): warning: (\w+) check always fails in (\S+): .* \[site (\d+)\]$`)

// checkSiteIDs asserts that every [site N] in -warn-static output is the
// runtime check-site ID (Aux) of an OpTypeCheck at that function and
// source site in the default instrumentation of prog, and returns how
// many it checked.
func checkSiteIDs(t *testing.T, prog *mir.Program, text string) int {
	t.Helper()
	ip, _ := instrument.Instrument(prog, instrument.Options{Variant: instrument.Full})
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		m := warnLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n++
		site, kind, fn := m[1], m[2], m[3]
		id, _ := strconv.ParseInt(m[4], 10, 64)
		if kind != "type" {
			t.Errorf("%s check carries a site ID: %s", kind, line)
		}
		found := false
		if f := ip.Funcs[fn]; f != nil {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == mir.OpTypeCheck && in.Site == site && in.Aux == id {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("[site %d] is no type check of %s at %s in the default instrumentation: %s", id, fn, site, line)
		}
	}
	return n
}

// TestWarnStaticCleanProgram: a provably-clean program produces no
// diagnostics and exit code 0.
func TestWarnStaticCleanProgram(t *testing.T) {
	c := findCase(t, "clean-matrix")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := runWarnStatic(prog, "main", &out); code != 0 {
		t.Fatalf("clean program exit code %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no STATIC-UNSAFE") {
		t.Errorf("clean-program output malformed:\n%s", out.String())
	}
}
