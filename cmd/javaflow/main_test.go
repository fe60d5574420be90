package main

import (
	"flag"
	"os"
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
