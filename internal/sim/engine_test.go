package sim

import (
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/workload"
)

func buildTestMethod(t *testing.T, maxLocals int, build func(a *bytecode.Assembler)) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &classfile.Method{
		Class: "T", Name: "m", MaxLocals: maxLocals,
		Code: code, Pool: classfile.NewConstantPool(),
	}
}

func runOn(t *testing.T, cfg Config, m *classfile.Method, policy BranchPolicy) Result {
	t.Helper()
	loader := &fabric.Loader{Fabric: cfg.Fabric}
	p, err := loader.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fabric.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg, res, policy)
	result, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if result.TimedOut {
		t.Fatalf("unexpected timeout after %d cycles (fired %d/%d)",
			result.MeshCycles, result.Fired, result.Static)
	}
	return result
}

func configByName(t testing.TB, name string) Config {
	t.Helper()
	for _, c := range Configurations() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no config %q", name)
	return Config{}
}

func TestStraightLineExecution(t *testing.T) {
	// The Figure 21 method: every instruction must fire exactly once.
	m := buildTestMethod(t, 5, func(a *bytecode.Assembler) {
		a.ILoad(1).ILoad(2).ILoad(3).Op(bytecode.Iadd).Op(bytecode.Iadd).
			Local(bytecode.Istore, 4).Op(bytecode.Return)
	})
	for _, name := range []string{"Baseline", "Compact10", "Compact2", "Sparse2", "Hetero2"} {
		cfg := configByName(t, name)
		r := runOn(t, cfg, m, BP1)
		if r.Fired != len(m.Code) {
			t.Errorf("%s: fired %d, want %d", name, r.Fired, len(m.Code))
		}
		if r.Coverage() != 1.0 {
			t.Errorf("%s: coverage %.2f, want 1.0", name, r.Coverage())
		}
		if r.MeshCycles <= 0 {
			t.Errorf("%s: non-positive cycle count", name)
		}
	}
}

func TestForwardBranchBothArms(t *testing.T) {
	m := buildTestMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Branch(bytecode.Ifeq, "else").
			Op(bytecode.Iconst1).
			Branch(bytecode.Goto, "join").
			Label("else").
			Op(bytecode.Iconst2).
			Label("join").
			IStore(1).
			Op(bytecode.Return)
	})
	cfg := configByName(t, "Baseline")

	// BP1 takes the first forward jump: the else arm executes (iconst_2),
	// the then arm does not.
	r1 := runOn(t, cfg, m, BP1)
	// 7 instructions total; taken path skips iconst_1 and goto = 5 fired.
	if r1.Fired != 5 {
		t.Errorf("BP1 fired %d, want 5", r1.Fired)
	}
	// BP2 falls through: iconst_1, goto execute; iconst_2 skipped = 6.
	r2 := runOn(t, cfg, m, BP2)
	if r2.Fired != 6 {
		t.Errorf("BP2 fired %d, want 6", r2.Fired)
	}
	if r1.Coverage() >= 1.0 || r2.Coverage() >= 1.0 {
		t.Error("single-arm executions cannot cover 100%")
	}
}

func TestLoopExecutesTenIterations(t *testing.T) {
	// One back jump: 90% taken = body runs 10 times before fall-through.
	m := buildTestMethod(t, 2, func(a *bytecode.Assembler) {
		a.Label("top").
			Iinc(1, 1).                   // 0
			ILoad(0).                     // 1
			Branch(bytecode.Ifne, "top"). // 2: back jump, taken 9x
			Op(bytecode.Return)           // 3
	})
	cfg := configByName(t, "Baseline")
	r := runOn(t, cfg, m, BP1)
	// Ten iterations of {iinc, iload, ifne} plus the return.
	want := 10*3 + 1
	if r.Fired != want {
		t.Errorf("fired %d, want %d", r.Fired, want)
	}
	if r.Coverage() != 1.0 {
		t.Errorf("coverage %.2f, want 1.0", r.Coverage())
	}
}

func TestDataflowOperandsGateFiring(t *testing.T) {
	// A float multiply must wait for both mesh operands and take the
	// 10-cycle float latency (Table 17).
	m := buildTestMethod(t, 3, func(a *bytecode.Assembler) {
		a.DLoad(0).DLoad(1).Op(bytecode.Dmul).DStore(2).Op(bytecode.Return)
	})
	cfg := configByName(t, "Baseline")
	r := runOn(t, cfg, m, BP1)
	if r.Fired != 5 {
		t.Errorf("fired %d, want 5", r.Fired)
	}
	// Lower bound: dmul alone is 10 cycles.
	if r.MeshCycles < CyclesFloat {
		t.Errorf("cycles %d < float latency %d", r.MeshCycles, CyclesFloat)
	}
}

func TestMemoryReadStalls(t *testing.T) {
	pool := classfile.NewConstantPool()
	fx := pool.AddFieldRef(classfile.FieldRef{Class: "T", Name: "x", Static: true, Slot: 0})
	a := bytecode.NewAssembler()
	a.Field(bytecode.GetstaticQuick, fx).IStore(0).Op(bytecode.Return)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{Class: "T", Name: "m", MaxLocals: 1, Code: code, Pool: pool}

	cfg := configByName(t, "Baseline")
	r := runOn(t, cfg, m, BP1)
	if r.MeshCycles < MemoryServiceCycles {
		t.Errorf("cycles %d < memory service %d", r.MeshCycles, MemoryServiceCycles)
	}
}

func TestCallPaysGPPService(t *testing.T) {
	pool := classfile.NewConstantPool()
	ref := pool.AddMethodRef(classfile.MethodRef{Class: "X", Name: "f", Argc: 1, ReturnsValue: true})
	a := bytecode.NewAssembler()
	a.ILoad(0).Call(bytecode.Invokestatic, ref, 1, true).IStore(0).Op(bytecode.Return)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{Class: "T", Name: "m", MaxLocals: 1, Code: code, Pool: pool}

	cfg := configByName(t, "Baseline")
	r := runOn(t, cfg, m, BP1)
	if r.MeshCycles < GPPServiceCycles {
		t.Errorf("cycles %d < GPP service %d", r.MeshCycles, GPPServiceCycles)
	}
}

func TestBaselineFastestConfigOrdering(t *testing.T) {
	// For a representative loopy method, IPC must be ordered
	// Baseline >= Compact10 >= Compact4 >= Compact2 >= Sparse2,
	// the central shape of Tables 21–22.
	m := buildTestMethod(t, 4, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(1).
			Label("top").
			ILoad(1).ILoad(2).Op(bytecode.Iadd).IStore(2).
			ILoad(1).ILoad(3).Op(bytecode.Ixor).IStore(3).
			Iinc(1, 1).
			ILoad(0).
			Branch(bytecode.Ifne, "top").
			ILoad(2).Op(bytecode.Ireturn)
	})
	names := []string{"Baseline", "Compact10", "Compact4", "Compact2", "Sparse2"}
	var prev float64 = 1e18
	for _, name := range names {
		cfg := configByName(t, name)
		r1 := runOn(t, cfg, m, BP1)
		r2 := runOn(t, cfg, m, BP2)
		ipc := (r1.IPC() + r2.IPC()) / 2
		if ipc > prev+1e-9 {
			t.Errorf("%s IPC %.4f exceeds previous config %.4f", name, ipc, prev)
		}
		prev = ipc
	}
}

func TestPredictorPatterns(t *testing.T) {
	p := NewPredictor(BP1)
	if !p.Forward(3) || p.Forward(3) || !p.Forward(3) {
		t.Error("BP1 forward pattern should alternate starting taken")
	}
	q := NewPredictor(BP2)
	if q.Forward(3) || !q.Forward(3) {
		t.Error("BP2 forward pattern should alternate starting not-taken")
	}
	taken := 0
	for i := 0; i < 20; i++ {
		if p.Backward(7) {
			taken++
		}
	}
	if taken != 18 {
		t.Errorf("back jumps taken %d/20, want 18 (90%%)", taken)
	}
}

func TestNextDoubleSimulation(t *testing.T) {
	// The Figure 31 end-to-end case: Random.nextDouble through every
	// configuration; the FoM pattern must decline from Baseline.
	nd := methodBySignature(t, "scimark/utils/Random.nextDouble/0")
	runner := &Runner{}
	var baseIPC float64
	for _, cfg := range Configurations() {
		run, err := runner.RunMethod(cfg, nd)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		ipc := run.MeanIPC()
		if cfg.Name == "Baseline" {
			baseIPC = ipc
			continue
		}
		if ipc > baseIPC+1e-9 {
			t.Errorf("%s IPC %.4f exceeds baseline %.4f", cfg.Name, ipc, baseIPC)
		}
		if run.BP1.Coverage() < 0.5 {
			t.Errorf("%s coverage %.2f too low", cfg.Name, run.BP1.Coverage())
		}
	}
}

func methodBySignature(t *testing.T, sig string) *classfile.Method {
	t.Helper()
	for _, m := range workload.NamedMethods() {
		if m.Signature() == sig {
			return m
		}
	}
	t.Fatalf("no method %s", sig)
	return nil
}

func TestRunnerSkipsIneligibleMethods(t *testing.T) {
	m := buildTestMethod(t, 1, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Switch(map[int64]string{1: "x"}, "x").
			Label("x").Op(bytecode.Return)
	})
	runner := &Runner{}
	cr, err := runner.RunAll(configByName(t, "Baseline"), []*classfile.Method{m})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Skipped != 1 || len(cr.Runs) != 0 {
		t.Errorf("skipped=%d runs=%d, want 1/0", cr.Skipped, len(cr.Runs))
	}
}

func TestNamedCorpusExecutesOnAllConfigs(t *testing.T) {
	runner := &Runner{MaxMeshCycles: 500_000}
	methods := workload.NamedMethods()
	for _, cfg := range Configurations() {
		cr, err := runner.RunAll(cfg, methods)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(cr.Runs) < 10 {
			t.Errorf("%s: only %d methods ran (skipped %d, timed out %d)",
				cfg.Name, len(cr.Runs), cr.Skipped, cr.TimedOut)
		}
	}
}
