package bugsuite

import (
	"io"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sanitizers"
)

func TestCasesCompile(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Desc == "" {
			t.Errorf("%s: missing description", c.Name)
		}
		prog, err := c.Program()
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if prog.Funcs["main"] == nil {
			t.Errorf("%s: no main", c.Name)
		}
	}
}

func TestClassCoverage(t *testing.T) {
	counts := map[Class]int{}
	for _, c := range Cases() {
		counts[c.Class]++
	}
	// The Fig. 1 matrix needs all three capability columns populated and
	// false-positive controls.
	if counts[TypeConfusion] < 5 {
		t.Errorf("TypeConfusion cases = %d, want >= 5", counts[TypeConfusion])
	}
	if counts[BoundsOverflow] < 3 {
		t.Errorf("BoundsOverflow cases = %d, want >= 3", counts[BoundsOverflow])
	}
	if counts[Temporal] < 3 {
		t.Errorf("Temporal cases = %d, want >= 3", counts[Temporal])
	}
	if counts[Clean] < 2 {
		t.Errorf("Clean cases = %d, want >= 2", counts[Clean])
	}
}

func TestByName(t *testing.T) {
	if ByName("use-after-free") == nil {
		t.Fatal("ByName failed on a known case")
	}
	if ByName("no-such-case") != nil {
		t.Fatal("ByName invented a case")
	}
	// ByName must return a copy safe to mutate.
	c := ByName("use-after-free")
	c.Name = "mutated"
	if ByName("use-after-free") == nil {
		t.Fatal("ByName exposed internal state")
	}
}

// TestExpectPinned runs every case that pins an expected report-kind set
// (the CVE-shaped libc cases) under the full tool and requires the
// distinct kinds to match exactly — no misses, no extra noise.
func TestExpectPinned(t *testing.T) {
	kindNames := func(ks []core.ErrorKind) []string {
		var out []string
		for _, k := range ks {
			out = append(out, k.String())
		}
		sort.Strings(out)
		return out
	}
	pinned := 0
	for _, c := range Cases() {
		if c.Expect == nil {
			continue
		}
		pinned++
		c := c
		t.Run(c.Name, func(t *testing.T) {
			prog, err := c.Program()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sanitizers.ToolEffectiveSan.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			var got []core.ErrorKind
			for k := range res.Reporter.IssuesByKind() {
				got = append(got, k)
			}
			want := kindNames(c.Expect)
			if g := kindNames(got); !equalStrings(g, want) {
				t.Errorf("report kinds %v, want %v\n%s", g, want, res.Reporter.Log())
			}
		})
	}
	if pinned < 5 {
		t.Errorf("pinned cases = %d, want >= 5 (the libc corpus)", pinned)
	}
}

// TestFailedTypeCheckReachesIntrinsic: the bounds a failed type check
// hands to memcpy still reach the intrinsic's own source check, which
// reports under its "(memcpy src)" label next to the type error.
func TestFailedTypeCheckReachesIntrinsic(t *testing.T) {
	c := ByName("libc-memcpy-failed-typecheck")
	if c == nil {
		t.Fatal("case missing")
	}
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sanitizers.ToolEffectiveSan.Exec(prog, "main", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buckets []string
	for _, is := range res.Reporter.Issues() {
		buckets = append(buckets, is.Kind.String()+" "+is.StaticType)
	}
	sort.Strings(buckets)
	want := []string{"bounds-error memcpy src", "type-error struct LibA0"}
	if !equalStrings(buckets, want) {
		t.Errorf("buckets %q, want %q\n%s", buckets, want, res.Reporter.Log())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClassStrings(t *testing.T) {
	for _, c := range []Class{TypeConfusion, BoundsOverflow, Temporal, Extra, Clean} {
		if c.String() == "?" {
			t.Errorf("class %d has no name", int(c))
		}
	}
}
