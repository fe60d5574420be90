package javaflow_test

import (
	"strings"
	"testing"

	"javaflow"
)

// buildSum returns the quickstart's sum method (example_test.go).
func buildSum(t *testing.T) *javaflow.Method {
	t.Helper()
	m, err := sumMethod()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublicAPIInterpreter(t *testing.T) {
	m := buildSum(t)
	vm := javaflow.NewJVM()
	cls := javaflow.NewClass(m.Class)
	cls.Add(m)
	if err := vm.Register(cls); err != nil {
		t.Fatal(err)
	}
	got, err := vm.Invoke(m, javaflow.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 45 {
		t.Errorf("sum(10) = %d, want 45", got.I)
	}
}

func TestPublicAPIDeployAndExecute(t *testing.T) {
	m := buildSum(t)
	for _, cfg := range javaflow.Configurations() {
		machine := javaflow.NewMachine(cfg)
		dep, err := machine.Deploy(m)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		run, err := dep.ExecuteBoth()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if run.MeanIPC() <= 0 {
			t.Errorf("%s: non-positive IPC", cfg.Name)
		}
		if run.BP1.TimedOut || run.BP2.TimedOut {
			t.Errorf("%s: timed out", cfg.Name)
		}
	}
}

func TestPublicAPIAnalyze(t *testing.T) {
	m := buildSum(t)
	an, err := javaflow.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Arcs) == 0 {
		t.Error("no arcs")
	}
	if an.BackMerges != 0 {
		t.Errorf("back merges = %d", an.BackMerges)
	}
}

func TestPublicAPIDescriptions(t *testing.T) {
	m := buildSum(t)
	bundle := javaflow.DescribeTokenBundle(m)
	for _, want := range []string{"HEAD_TOKEN", "MEMORY_TOKEN", "REGISTER_TOKEN[2]", "TAIL_TOKEN"} {
		if !strings.Contains(bundle, want) {
			t.Errorf("bundle description missing %q", want)
		}
	}
	dis := javaflow.Disassemble(m.Code)
	if !strings.Contains(dis, "iinc 2, 1") {
		t.Errorf("disassembly missing iinc: %s", dis)
	}
}

func TestPublicAPISuitesAndGeneration(t *testing.T) {
	if len(javaflow.Suites()) < 10 {
		t.Error("expected the full suite roster")
	}
	if len(javaflow.NamedMethods()) < 15 {
		t.Error("expected the full named-method roster")
	}
	classes := javaflow.GenerateMethods(1, 10)
	n := 0
	for _, c := range classes {
		n += len(c.Methods)
	}
	if n != 10 {
		t.Errorf("generated %d methods, want 10", n)
	}
}

func TestPublicAPIConfigurations(t *testing.T) {
	cfgs := javaflow.Configurations()
	if len(cfgs) != 6 {
		t.Fatalf("%d configurations, want 6 (Table 15)", len(cfgs))
	}
	want := []string{"Baseline", "Compact10", "Compact4", "Compact2", "Sparse2", "Hetero2"}
	for i, name := range want {
		if cfgs[i].Name != name {
			t.Errorf("config %d = %s, want %s", i, cfgs[i].Name, name)
		}
	}
}
