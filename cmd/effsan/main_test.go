package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugsuite"
)

// runSource writes src to a temporary prog.c, runs the command on it
// with args, and returns the exit status, stdout and stderr.
func runSource(t *testing.T, src string, args ...string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run(append(args, path), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunReportsBugsuiteBucket: the static-oob case's constant
// out-of-bounds store and load are one bounds-error bucket, named after
// the global that was accessed, and the run itself succeeds.
func TestRunReportsBugsuiteBucket(t *testing.T) {
	var c *bugsuite.Case
	for _, bc := range bugsuite.Cases() {
		if bc.Name == "static-oob" {
			c = &bc
		}
	}
	if c == nil {
		t.Fatal("bugsuite case static-oob missing")
	}
	code, out, errs := runSource(t, c.Src)
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q, want 0 and none", code, errs)
	}
	want := "bounds-error: access of (long) outside bounds of (long) sub-object at offset 0"
	if !strings.Contains(out, "--- 1 distinct issue(s), 2 error event(s) ---") || !strings.Contains(out, want) {
		t.Errorf("report does not show the expected bucket %q:\n%s", want, out)
	}
}

// TestRunIncompleteTypeIsDiagnostic: inputs that once panicked the
// frontend or the interpreter are compile errors: an "effsan: cc:"
// diagnostic and exit status 1, with no Go stack trace.
func TestRunIncompleteTypeIsDiagnostic(t *testing.T) {
	for _, src := range []string{
		`struct A0000{struct A A;};`,
		`int main(){struct A*g=(struct A*)(struct A0)0; return 0;}`,
	} {
		code, _, errs := runSource(t, src)
		if code != 1 || !strings.HasPrefix(errs, "effsan: cc:") || strings.Contains(errs, "goroutine") {
			t.Errorf("%s: exit %d, stderr:\n%s\nwant exit 1 and one effsan: cc: diagnostic", src, code, errs)
		}
	}
}
