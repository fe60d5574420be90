package core

import (
	"strings"
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
)

func figure21Method(t *testing.T) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	a.ILoad(1).ILoad(2).ILoad(3).
		Op(bytecode.Iadd).Op(bytecode.Iadd).
		Local(bytecode.Istore, 4).
		Op(bytecode.Return)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &classfile.Method{
		Class: "Demo", Name: "fig21", MaxLocals: 5,
		Code: code, Pool: classfile.NewConstantPool(),
	}
}

func TestMachineDeployExecute(t *testing.T) {
	for _, cfg := range sim.Configurations() {
		m := NewMachine(cfg)
		dep, err := m.Deploy(figure21Method(t))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		run, err := dep.ExecuteBoth()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if run.BP1.Fired != 7 || run.BP2.Fired != 7 {
			t.Errorf("%s: fired %d/%d, want 7/7", cfg.Name, run.BP1.Fired, run.BP2.Fired)
		}
	}
}

func TestMachineDeployRejectsIneligible(t *testing.T) {
	a := bytecode.NewAssembler()
	a.ILoad(0).Switch(map[int64]string{1: "x"}, "x").Label("x").Op(bytecode.Return)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bad := &classfile.Method{Class: "Demo", Name: "sw", MaxLocals: 1,
		Code: code, Switches: a.Switches(), Pool: classfile.NewConstantPool()}
	m := NewMachine(sim.Configurations()[0])
	_, err = m.Deploy(bad)
	var le *fabric.LoadError
	if err == nil {
		t.Fatal("switch method should be rejected")
	}
	if !errorsAs(err, &le) {
		t.Fatalf("want LoadError, got %T: %v", err, err)
	}
}

func errorsAs(err error, target **fabric.LoadError) bool {
	for err != nil {
		if le, ok := err.(*fabric.LoadError); ok {
			*target = le
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestDescribeResolution(t *testing.T) {
	m := NewMachine(sim.Configurations()[1])
	dep, err := m.Deploy(figure21Method(t))
	if err != nil {
		t.Fatal(err)
	}
	desc := dep.DescribeResolution()
	for _, want := range []string{"iload_1", ">> 4,1 <<", "merges=0 backMerges=0"} {
		if !strings.Contains(desc, want) {
			t.Errorf("description missing %q:\n%s", want, desc)
		}
	}
}

func TestDescribeLoad(t *testing.T) {
	m := NewMachine(sim.Configurations()[5]) // Hetero2
	dep, err := m.Deploy(figure21Method(t))
	if err != nil {
		t.Fatal(err)
	}
	trace := dep.Placement.DescribeLoad()
	if !strings.Contains(trace, "-> node") || !strings.Contains(trace, "ratio") {
		t.Errorf("load trace malformed:\n%s", trace)
	}
}

func TestDescribeTokenBundle(t *testing.T) {
	desc := DescribeTokenBundle(figure21Method(t))
	if !strings.Contains(desc, "REGISTER_TOKEN[4]") || !strings.Contains(desc, "TAIL_TOKEN") {
		t.Errorf("bundle description malformed:\n%s", desc)
	}
}
