package jvm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// buildMethod assembles, wraps and registers a single static method.
func buildMethod(t *testing.T, vm *Machine, name string, argc, maxLocals int,
	returns bool, pool *classfile.ConstantPool, build func(a *bytecode.Assembler)) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	if pool == nil {
		pool = classfile.NewConstantPool()
	}
	m := &classfile.Method{
		Name: name, Argc: argc, ReturnsValue: returns,
		MaxLocals: maxLocals, Code: code, Switches: a.Switches(), Pool: pool,
	}
	c := classfile.NewClass("T")
	c.Add(m)
	if err := vm.Register(c); err != nil {
		t.Fatalf("register: %v", err)
	}
	return m
}

func TestInvokeAddMethod(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "add", 2, 2, true, nil, func(a *bytecode.Assembler) {
		a.ILoad(0).ILoad(1).Op(bytecode.Iadd).Op(bytecode.Ireturn)
	})
	got, err := vm.Invoke(m, Int(17), Int(25))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 42 {
		t.Errorf("add(17,25) = %d, want 42", got.I)
	}
}

func TestInvokeLoopSum(t *testing.T) {
	vm := NewMachine()
	// sum = 0; for i = 0; i < n; i++ { sum += i }  (locals: 0=n 1=sum 2=i)
	m := buildMethod(t, vm, "sum", 1, 3, true, nil, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(1).
			PushInt(0).IStore(2).
			Label("loop").
			ILoad(2).ILoad(0).
			Branch(bytecode.IfIcmpge, "done").
			ILoad(1).ILoad(2).Op(bytecode.Iadd).IStore(1).
			Iinc(2, 1).
			Branch(bytecode.Goto, "loop").
			Label("done").
			ILoad(1).Op(bytecode.Ireturn)
	})
	got, err := vm.Invoke(m, Int(100))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 4950 {
		t.Errorf("sum(100) = %d, want 4950", got.I)
	}
}

func TestInt32Overflow(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "ovf", 2, 2, true, nil, func(a *bytecode.Assembler) {
		a.ILoad(0).ILoad(1).Op(bytecode.Imul).Op(bytecode.Ireturn)
	})
	got, err := vm.Invoke(m, Int(1<<20), Int(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 0 {
		t.Errorf("2^40 as int32 = %d, want 0", got.I)
	}
}

func TestDoubleArithmetic(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "hyp", 2, 2, true, nil, func(a *bytecode.Assembler) {
		a.DLoad(0).DLoad(0).Op(bytecode.Dmul).
			DLoad(1).DLoad(1).Op(bytecode.Dmul).
			Op(bytecode.Dadd).Op(bytecode.Dreturn)
	})
	got, err := vm.Invoke(m, Double(3), Double(4))
	if err != nil {
		t.Fatal(err)
	}
	if got.F != 25 {
		t.Errorf("3^2+4^2 = %g, want 25", got.F)
	}
}

func TestDivideByZeroThrows(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "div", 2, 2, true, nil, func(a *bytecode.Assembler) {
		a.ILoad(0).ILoad(1).Op(bytecode.Idiv).Op(bytecode.Ireturn)
	})
	_, err := vm.Invoke(m, Int(1), Int(0))
	var thrown *ThrownError
	if !errors.As(err, &thrown) || thrown.Exception != "ArithmeticException" {
		t.Fatalf("want ArithmeticException, got %v", err)
	}
}

func TestArrayRoundTrip(t *testing.T) {
	vm := NewMachine()
	// a[i] = a[i] * 2 for all i; locals: 0=arr 1=i
	m := buildMethod(t, vm, "dbl", 1, 2, false, nil, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(1).
			Label("loop").
			ILoad(1).ALoad(0).Op(bytecode.Arraylength).
			Branch(bytecode.IfIcmpge, "done").
			ALoad(0).ILoad(1).
			ALoad(0).ILoad(1).Op(bytecode.Iaload).
			PushInt(2).Op(bytecode.Imul).
			Op(bytecode.Iastore).
			Iinc(1, 1).
			Branch(bytecode.Goto, "loop").
			Label("done").Op(bytecode.Return)
	})
	arr := vm.NewIntArray([]int64{1, 2, 3, 4})
	if _, err := vm.Invoke(m, arr); err != nil {
		t.Fatal(err)
	}
	got, err := vm.IntArrayData(arr)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 4, 6, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestArrayBoundsThrow(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "oob", 1, 1, true, nil, func(a *bytecode.Assembler) {
		a.ALoad(0).PushInt(99).Op(bytecode.Iaload).Op(bytecode.Ireturn)
	})
	arr := vm.NewIntArray([]int64{1})
	_, err := vm.Invoke(m, arr)
	var thrown *ThrownError
	if !errors.As(err, &thrown) || thrown.Exception != "ArrayIndexOutOfBoundsException" {
		t.Fatalf("want bounds exception, got %v", err)
	}
}

func TestNullDereferenceThrows(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "npe", 1, 1, true, nil, func(a *bytecode.Assembler) {
		a.ALoad(0).Op(bytecode.Arraylength).Op(bytecode.Ireturn)
	})
	_, err := vm.Invoke(m, Null)
	var thrown *ThrownError
	if !errors.As(err, &thrown) || thrown.Exception != "NullPointerException" {
		t.Fatalf("want NPE, got %v", err)
	}
}

func TestFieldsAndQuickRewrite(t *testing.T) {
	vm := NewMachine()
	pool := classfile.NewConstantPool()
	fx := pool.AddFieldRef(classfile.FieldRef{Class: "T", Name: "x", Static: true, Slot: 0})

	a := bytecode.NewAssembler()
	a.Label("loop").
		Field(bytecode.Getstatic, fx).
		PushInt(1).Op(bytecode.Iadd).
		Field(bytecode.Putstatic, fx).
		Iinc(0, 1).
		ILoad(0).PushInt(10).
		Branch(bytecode.IfIcmplt, "loop").
		Field(bytecode.Getstatic, fx).
		Op(bytecode.Ireturn)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{Name: "inc", Argc: 1, ReturnsValue: true, MaxLocals: 1, Code: code, Pool: pool}
	c := classfile.NewClass("T")
	c.StaticSlots = 1
	c.Add(m)
	if err := vm.Register(c); err != nil {
		t.Fatal(err)
	}

	got, err := vm.Invoke(m, Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 10 {
		t.Errorf("counter = %d, want 10", got.I)
	}

	// After the run the hot sites must have been rewritten to _Quick form.
	quicks := 0
	for _, in := range m.Code {
		if bytecode.IsQuick(in.Op) {
			quicks++
		}
	}
	if quicks != 3 {
		t.Errorf("rewrote %d sites to _Quick, want 3", quicks)
	}

	// Table 5 shape: overwhelmingly _Quick executions after warm-up.
	qs := vm.Profile.QuickStats()
	if qs.Base != 3 {
		t.Errorf("base executions = %d, want 3 (one per site)", qs.Base)
	}
	if qs.QuickPercent() < 0.85 {
		t.Errorf("quick share = %.2f, want > 0.85", qs.QuickPercent())
	}
}

func TestInvokeNested(t *testing.T) {
	vm := NewMachine()
	pool := classfile.NewConstantPool()
	sqRef := pool.AddMethodRef(classfile.MethodRef{Class: "T", Name: "sq", Argc: 1, ReturnsValue: true})

	aSq := bytecode.NewAssembler()
	aSq.ILoad(0).ILoad(0).Op(bytecode.Imul).Op(bytecode.Ireturn)
	sqCode, _ := aSq.Finish()
	sq := &classfile.Method{Name: "sq", Argc: 1, ReturnsValue: true, MaxLocals: 1, Code: sqCode, Pool: pool}

	aMain := bytecode.NewAssembler()
	aMain.ILoad(0).Call(bytecode.Invokestatic, sqRef, 1, true).
		ILoad(1).Call(bytecode.Invokestatic, sqRef, 1, true).
		Op(bytecode.Iadd).Op(bytecode.Ireturn)
	mainCode, _ := aMain.Finish()
	main := &classfile.Method{Name: "main", Argc: 2, ReturnsValue: true, MaxLocals: 2, Code: mainCode, Pool: pool}

	c := classfile.NewClass("T")
	c.Add(sq).Add(main)
	if err := vm.Register(c); err != nil {
		t.Fatal(err)
	}
	got, err := vm.Invoke(main, Int(3), Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 25 {
		t.Errorf("3²+4² = %d, want 25", got.I)
	}
	// Two calls of sq's four instructions.
	if got := vm.Profile.OpsOf("T.sq/1"); got != 8 {
		t.Errorf("sq executed %d ops, want 8 (two invocations)", got)
	}
}

func TestInstanceMethodAndObjectFields(t *testing.T) {
	vm := NewMachine()
	pool := classfile.NewConstantPool()
	fv := pool.AddFieldRef(classfile.FieldRef{Class: "Acc", Name: "v", Slot: 0})

	a := bytecode.NewAssembler()
	// this.v = this.v + arg; return this.v  (locals: 0=this 1=arg)
	a.ALoad(0).
		ALoad(0).Field(bytecode.Getfield, fv).
		ILoad(1).Op(bytecode.Iadd).
		Field(bytecode.Putfield, fv).
		ALoad(0).Field(bytecode.Getfield, fv).
		Op(bytecode.Ireturn)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{Name: "acc", Argc: 1, Instance: true, ReturnsValue: true,
		MaxLocals: 2, Code: code, Pool: pool}
	c := classfile.NewClass("Acc")
	c.InstanceSlots = 1
	c.Add(m)
	if err := vm.Register(c); err != nil {
		t.Fatal(err)
	}

	obj := vm.Heap.AllocObject("Acc", 1)
	for i, want := range []int64{5, 12} {
		got, err := vm.Invoke(m, obj, Int(int64(5+i*2)))
		if err != nil {
			t.Fatal(err)
		}
		if got.I != want {
			t.Errorf("acc call %d = %d, want %d", i, got.I, want)
		}
	}
}

func TestLookupswitch(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "sw", 1, 1, true, nil, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Switch(map[int64]string{1: "one", 7: "seven"}, "def").
			Label("one").PushInt(100).Op(bytecode.Ireturn).
			Label("seven").PushInt(700).Op(bytecode.Ireturn).
			Label("def").PushInt(-1).Op(bytecode.Ireturn)
	})
	cases := map[int64]int64{1: 100, 7: 700, 3: -1}
	for in, want := range cases {
		got, err := vm.Invoke(m, Int(in))
		if err != nil {
			t.Fatal(err)
		}
		if got.I != want {
			t.Errorf("sw(%d) = %d, want %d", in, got.I, want)
		}
	}
}

func TestConversionsAndCompares(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "conv", 1, 1, true, nil, func(a *bytecode.Assembler) {
		a.DLoad(0).Op(bytecode.D2i).Op(bytecode.Ireturn)
	})
	cases := []struct {
		in   float64
		want int64
	}{
		{3.99, 3},
		{-3.99, -3},
		{math.NaN(), 0},
		{1e18, math.MaxInt32},
		{-1e18, math.MinInt32},
	}
	for _, c := range cases {
		got, err := vm.Invoke(m, Double(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got.I != c.want {
			t.Errorf("d2i(%g) = %d, want %d", c.in, got.I, c.want)
		}
	}

	cmp := buildMethod(t, vm, "cmp", 2, 2, true, nil, func(a *bytecode.Assembler) {
		a.DLoad(0).DLoad(1).Op(bytecode.Dcmpl).Op(bytecode.Ireturn)
	})
	if got, _ := vm.Invoke(cmp, Double(1), Double(2)); got.I != -1 {
		t.Errorf("dcmpl(1,2) = %d, want -1", got.I)
	}
	if got, _ := vm.Invoke(cmp, Double(math.NaN()), Double(2)); got.I != -1 {
		t.Errorf("dcmpl(NaN,2) = %d, want -1 (l-form NaN bias)", got.I)
	}
}

func TestLdcConstants(t *testing.T) {
	vm := NewMachine()
	pool := classfile.NewConstantPool()
	di := pool.AddDouble(2.5)
	ii := pool.AddInt(1234567)
	m := buildMethod(t, vm, "ldc", 0, 0, true, pool, func(a *bytecode.Assembler) {
		a.Ldc(di, true).Ldc(ii, false).Op(bytecode.I2d).Op(bytecode.Dmul).Op(bytecode.Dreturn)
	})
	got, err := vm.Invoke(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.F != 2.5*1234567 {
		t.Errorf("ldc result = %g", got.F)
	}
}

func TestStepLimit(t *testing.T) {
	vm := NewMachine()
	vm.MaxSteps = 100
	m := buildMethod(t, vm, "spin", 0, 1, false, nil, func(a *bytecode.Assembler) {
		// Spins until the int32 counter wraps negative — far past MaxSteps.
		a.Label("top").Iinc(0, 1).ILoad(0).Branch(bytecode.Ifge, "top").Op(bytecode.Return)
	})
	_, err := vm.Invoke(m)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step-limit error, got %v", err)
	}
}

func TestProfileDynamicMix(t *testing.T) {
	vm := NewMachine()
	m := buildMethod(t, vm, "mix", 1, 3, true, nil, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(1).PushInt(0).IStore(2).
			Label("loop").
			ILoad(2).ILoad(0).Branch(bytecode.IfIcmpge, "done").
			ILoad(1).ILoad(2).Op(bytecode.Iadd).IStore(1).
			Iinc(2, 1).Branch(bytecode.Goto, "loop").
			Label("done").ILoad(1).Op(bytecode.Ireturn)
	})
	if _, err := vm.Invoke(m, Int(50)); err != nil {
		t.Fatal(err)
	}
	sig := m.Signature()
	if vm.Profile.OpCount(sig, bytecode.Iadd) != 50 {
		t.Errorf("iadd count = %d, want 50", vm.Profile.OpCount(sig, bytecode.Iadd))
	}
	if vm.Profile.OpCount(sig, bytecode.Iinc) != 50 {
		t.Errorf("iinc count = %d, want 50", vm.Profile.OpCount(sig, bytecode.Iinc))
	}
	mix := vm.Profile.MixOf(nil)
	if mix[bytecode.GroupIntArith] != 50 {
		t.Errorf("int-arith group count = %d, want 50", mix[bytecode.GroupIntArith])
	}
	if mix.Total() != vm.Profile.TotalOps() {
		t.Errorf("group totals %d != total ops %d", mix.Total(), vm.Profile.TotalOps())
	}
	top := vm.Profile.TopMethods()
	if len(top) != 1 || top[0].Signature != sig || top[0].Share != 1.0 {
		t.Errorf("TopMethods = %+v", top)
	}
}

func TestJsrRet(t *testing.T) {
	vm := NewMachine()
	// jsr to a subroutine that stores the retaddr, increments local 1, rets.
	m := buildMethod(t, vm, "fin", 0, 3, true, nil, func(a *bytecode.Assembler) {
		a.PushInt(0).IStore(1).
			Branch(bytecode.Jsr, "sub").
			Branch(bytecode.Jsr, "sub").
			ILoad(1).Op(bytecode.Ireturn).
			Label("sub").
			AStore(2). // return address
			Iinc(1, 1).
			OpA(bytecode.Ret, 2)
	})
	got, err := vm.Invoke(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 2 {
		t.Errorf("subroutine ran %d times, want 2", got.I)
	}
}

func TestNewObjectAndInstanceof(t *testing.T) {
	vm := NewMachine()
	pool := classfile.NewConstantPool()
	ci := pool.AddString("Point") // class name payload for new
	// Manually add a classref-style constant: reuse string constant; New
	// reads c.S.
	_ = ci
	m := buildMethod(t, vm, "mk", 0, 1, true, pool, func(a *bytecode.Assembler) {
		a.OpA(bytecode.New, int64(ci)).
			AStore(0).
			ALoad(0).
			OpA(bytecode.Instanceof, int64(ci)).
			Op(bytecode.Ireturn)
	})
	got, err := vm.Invoke(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 1 {
		t.Errorf("instanceof new Point() = %d, want 1", got.I)
	}
}
