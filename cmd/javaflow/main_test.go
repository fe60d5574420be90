package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"javaflow/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/figure20.golden from the current code")

// TestFigure20Golden pins the load walk `javaflow -demo load` prints for
// its default method and configuration (nextDouble on Hetero2): one line
// per instruction naming the node, its position and its kind, then the
// span. Run with -update only in a change that says why the walk moved.
func TestFigure20Golden(t *testing.T) {
	cfg, ok := findConfig("Hetero2")
	m := findMethod("nextDouble")
	if !ok || m == nil {
		t.Fatal("the demo's default method or configuration is gone")
	}
	dep, err := core.NewMachine(cfg).Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	got := dep.Placement.DescribeLoad()
	const path = "testdata/figure20.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("Figure 20 load walk differs from %s:\n%s", path, got)
	}
}

// demoGoldens are the three outputs of the command that testdata pins:
// the default demos (Figures 20, 21–22, 23 and 31 for nextDouble on
// Hetero2), the Figure 26 layout, and the method list. Six lines of the
// default output end in a space, which is why these are files and not
// Example output blocks.
var demoGoldens = []struct {
	golden string
	args   []string
}{
	{"testdata/default.golden", nil},
	{"testdata/hetero.golden", []string{"-demo", "hetero"}},
	{"testdata/list.golden", []string{"-list"}},
}

// TestDemoGoldens runs the command with each golden's arguments and
// compares what it prints, byte for byte.
func TestDemoGoldens(t *testing.T) {
	for _, g := range demoGoldens {
		t.Run(g.golden, func(t *testing.T) {
			code, got, stderr := runJavaflow(g.args...)
			if code != 0 || stderr != "" {
				t.Fatalf("javaflow %v: exit %d, stderr %q", g.args, code, stderr)
			}
			want, err := os.ReadFile(g.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("javaflow %v differs from %s:\n%s", g.args, g.golden, got)
			}
		})
	}
}

// runJavaflow runs the command in process and returns its exit status and
// output.
func runJavaflow(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBadArgumentsPrintNothing: every argument is checked before the first
// demo prints. An unknown demo after a valid one used to exit 2 only after
// the valid one had printed its walk.
func TestBadArgumentsPrintNothing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-demo", "load,bogus"}, 2, `unknown demo "bogus"`},
		{[]string{"-demo", "bogus"}, 2, `unknown demo "bogus"`},
		{[]string{"-method", "noSuchMethod"}, 1, `no method matching "noSuchMethod"`},
		{[]string{"-config", "Hetero3"}, 1, `no configuration "Hetero3"`},
		{[]string{"-scale", "2"}, 2, "flag provided but not defined: -scale"},
	} {
		code, stdout, stderr := runJavaflow(tc.args...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("javaflow %s: exit %d, stdout %d bytes, stderr %q; want exit %d, empty stdout, stderr containing %q",
				strings.Join(tc.args, " "), code, len(stdout), stderr, tc.code, tc.want)
		}
	}
}
