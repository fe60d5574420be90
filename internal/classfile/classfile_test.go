package classfile

import (
	"strings"
	"sync"
	"testing"

	"javaflow/internal/bytecode"
)

func asm(t *testing.T, build func(a *bytecode.Assembler)) []bytecode.Instruction {
	t.Helper()
	a := bytecode.NewAssembler()
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return code
}

func simpleMethod(t *testing.T, maxLocals int, build func(a *bytecode.Assembler)) *Method {
	t.Helper()
	return &Method{
		Class: "Test", Name: "m", MaxLocals: maxLocals,
		Code: asm(t, build), Pool: NewConstantPool(),
	}
}

func TestConstantPool(t *testing.T) {
	p := NewConstantPool()
	i1 := p.AddInt(42)
	i2 := p.AddDouble(3.5)
	i3 := p.AddMethodRef(MethodRef{Class: "C", Name: "f", Argc: 2, ReturnsValue: true})
	i4 := p.AddFieldRef(FieldRef{Class: "C", Name: "x", Slot: 1})
	if i1 != 1 || i2 != 2 || i3 != 3 || i4 != 4 {
		t.Fatalf("indices = %d %d %d %d, want 1..4 (index 0 reserved)", i1, i2, i3, i4)
	}
	c, err := p.At(i2)
	if err != nil || c.Kind != ConstDouble || c.F != 3.5 {
		t.Errorf("At(%d) = %+v, %v", i2, c, err)
	}
	if _, err := p.At(0); err == nil {
		t.Error("At(0) should fail: index 0 is reserved")
	}
	if _, err := p.At(99); err == nil {
		t.Error("At(99) should fail")
	}
	argc, rv, err := p.CallEffect(i3)
	if err != nil || argc != 2 || !rv {
		t.Errorf("CallEffect = (%d,%v,%v), want (2,true,nil)", argc, rv, err)
	}
	if _, _, err := p.CallEffect(i1); err == nil {
		t.Error("CallEffect on int constant should fail")
	}
}

func TestVerifyComputesMaxStack(t *testing.T) {
	m := simpleMethod(t, 4, func(a *bytecode.Assembler) {
		a.ILoad(0).ILoad(1).ILoad(2).Op(bytecode.Iadd).Op(bytecode.Iadd).
			IStore(3).Op(bytecode.Return)
	})
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 3 {
		t.Errorf("MaxStack = %d, want 3", m.MaxStack)
	}
}

func TestVerifyRejectsUnderflow(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.Op(bytecode.Iadd).Op(bytecode.Return)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "pops") {
		t.Fatalf("want underflow error, got %v", err)
	}
}

func TestVerifyRejectsInconsistentMerge(t *testing.T) {
	// One path pushes a value before the merge point, the other doesn't —
	// the exact Figure 9 invalid-stack example.
	m := simpleMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Branch(bytecode.Ifeq, "merge").
			Op(bytecode.Iconst1). // extra push on fall-through path
			Label("merge").
			Op(bytecode.Return)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "merge") {
		t.Fatalf("want merge-inconsistency error, got %v", err)
	}
}

func TestVerifyAcceptsConsistentMerge(t *testing.T) {
	m := simpleMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0).
			Branch(bytecode.Ifeq, "else").
			Op(bytecode.Iconst1).
			Branch(bytecode.Goto, "merge").
			Label("else").
			Op(bytecode.Iconst2).
			Label("merge").
			IStore(1).
			Op(bytecode.Return)
	})
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 1 {
		t.Errorf("MaxStack = %d, want 1", m.MaxStack)
	}
}

func TestVerifyRejectsUnreachable(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.Op(bytecode.Return).Op(bytecode.Nop)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
}

func TestVerifyRejectsRegisterOutOfRange(t *testing.T) {
	m := simpleMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(5).Op(bytecode.Pop).Op(bytecode.Return)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "register") {
		t.Fatalf("want register error, got %v", err)
	}
}

func TestVerifyRejectsFallOffEnd(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.Op(bytecode.Nop)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("want fall-off error, got %v", err)
	}
}

func TestVerifyRejectsParamOverflow(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.Op(bytecode.Return)
	})
	m.Argc = 3
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "MaxLocals") {
		t.Fatalf("want param-overflow error, got %v", err)
	}
}

func TestVerifyLoopBackBranch(t *testing.T) {
	m := simpleMethod(t, 2, func(a *bytecode.Assembler) {
		a.Label("loop").
			Iinc(1, 1).
			ILoad(1).
			PushInt(10).
			Branch(bytecode.IfIcmplt, "loop").
			Op(bytecode.Return)
	})
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", m.MaxStack)
	}
}

func TestVerifyValueReturnNeedsCleanStack(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.Op(bytecode.Iconst1).Op(bytecode.Iconst2).Op(bytecode.Ireturn)
	})
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "stack not empty") {
		t.Fatalf("want dirty-stack error, got %v", err)
	}
}

func TestEntryDepths(t *testing.T) {
	m := simpleMethod(t, 2, func(a *bytecode.Assembler) {
		a.ILoad(0). // depth 0 -> 1
				ILoad(1).           // 1 -> 2
				Op(bytecode.Iadd).  // 2 -> 1
				IStore(0).          // 1 -> 0
				Op(bytecode.Return) // 0
	})
	depths, err := EntryDepths(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 1, 0}
	for i, w := range want {
		if depths[i] != w {
			t.Errorf("depth[%d] = %d, want %d", i, depths[i], w)
		}
	}
}

func TestClassRegistry(t *testing.T) {
	c := NewClass("Example")
	m := &Method{Name: "run", MaxLocals: 1, Pool: NewConstantPool()}
	c.Add(m)
	if m.Class != "Example" {
		t.Errorf("Add did not set class name: %q", m.Class)
	}
	got, err := c.Method("run")
	if err != nil || got != m {
		t.Errorf("Method lookup failed: %v", err)
	}
	if _, err := c.Method("missing"); err == nil {
		t.Error("expected error for missing method")
	}
}

func TestMethodSignature(t *testing.T) {
	m := &Method{Class: "A", Name: "f", Argc: 3, Instance: true}
	if got := m.Signature(); got != "A.f/3" {
		t.Errorf("Signature = %q", got)
	}
	if m.ParamRegisters() != 4 {
		t.Errorf("ParamRegisters = %d, want 4 (receiver + 3 args)", m.ParamRegisters())
	}
	// The signature is the fleet-wide addressing key: its bytes are pinned,
	// multi-digit and zero argc included.
	for _, tc := range []struct {
		ref  MethodRef
		want string
	}{
		{MethodRef{Class: "scimark/fft/FFT", Name: "bitreverse", Argc: 1}, "scimark/fft/FFT.bitreverse/1"},
		{MethodRef{Class: "A", Name: "<init>", Argc: 0}, "A.<init>/0"},
		{MethodRef{Class: "gen/C12", Name: "m7", Argc: 12}, "gen/C12.m7/12"},
		{MethodRef{Class: "A", Name: "wide", Argc: 255}, "A.wide/255"},
		{MethodRef{}, "./0"},
	} {
		if got := tc.ref.Signature(); got != tc.want {
			t.Errorf("%+v.Signature() = %q, want %q", tc.ref, got, tc.want)
		}
	}
}

// TestSignatureAndHashMemo: Signature and Hash are computed once per
// object, and the package's own construction-time mutations — Class.Add's
// naming and Verify's MaxStack stamp — drop the memo instead of freezing a
// value from before the method was complete.
func TestSignatureAndHashMemo(t *testing.T) {
	m := simpleMethod(t, 1, func(a *bytecode.Assembler) {
		a.PushInt(1).PushInt(2).Op(bytecode.Iadd).IStore(0).Op(bytecode.Return)
	})
	sig, hash := m.Signature(), m.Hash()
	if sig != "Test.m/0" || hash == 0 {
		t.Fatalf("Signature %q, Hash %#x", sig, hash)
	}
	if m.Signature() != sig || m.Hash() != hash {
		t.Fatal("memoised values differ from the computed ones")
	}

	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	stamped := m.Hash()
	if stamped == hash {
		t.Error("Hash unchanged after Verify stamped MaxStack")
	}
	if err := Verify(m); err != nil || m.Hash() != stamped {
		t.Errorf("re-verification moved the hash: %v", err)
	}

	NewClass("pkg/Owner").Add(m)
	if got := m.Signature(); got != "pkg/Owner.m/0" {
		t.Errorf("Signature after Add = %q", got)
	}
	if m.Hash() == stamped {
		t.Error("Hash unchanged after Add renamed the class")
	}
	fresh := &Method{Class: m.Class, Name: m.Name, MaxLocals: m.MaxLocals, MaxStack: m.MaxStack, Code: m.Code, Pool: m.Pool}
	if fresh.Hash() != m.Hash() || fresh.Signature() != m.Signature() {
		t.Error("memo differs from a fresh computation over the same fields")
	}

	// First use may race: deployment workers reach a method concurrently.
	shared := &Method{Class: m.Class, Name: m.Name, MaxLocals: m.MaxLocals, MaxStack: m.MaxStack, Code: m.Code, Pool: m.Pool}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if shared.Signature() != m.Signature() || shared.Hash() != m.Hash() {
				t.Error("concurrent first use computed a different value")
			}
		}()
	}
	wg.Wait()
}
