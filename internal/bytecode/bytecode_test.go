package bytecode

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestOpcodeTableInvariants(t *testing.T) {
	ops := Opcodes()
	if len(ops) < 200 {
		t.Fatalf("opcode table has %d entries, want the full architected set (>=200)", len(ops))
	}
	for _, op := range ops {
		info := MustLookup(op)
		if info.Mnemonic == "" {
			t.Errorf("opcode 0x%02x has empty mnemonic", byte(op))
		}
		if info.Group == GroupInvalid {
			t.Errorf("%s has invalid group", info.Mnemonic)
		}
		if info.Pop < VarPop || info.Pop > 6 {
			t.Errorf("%s has implausible pop %d", info.Mnemonic, info.Pop)
		}
		if info.Push < 0 || info.Push > 6 {
			t.Errorf("%s has implausible push %d", info.Mnemonic, info.Push)
		}
		if info.Pop == VarPop && info.Group != GroupCall && op != Multianewarray {
			t.Errorf("%s has VarPop but is not a call", info.Mnemonic)
		}
	}
}

func TestOpcodeMnemonicsUnique(t *testing.T) {
	seen := make(map[string]Opcode)
	for _, op := range Opcodes() {
		m := MustLookup(op).Mnemonic
		if prev, dup := seen[m]; dup {
			t.Errorf("mnemonic %q used by 0x%02x and 0x%02x", m, byte(prev), byte(op))
		}
		seen[m] = op
	}
}

func TestGroupMixMapping(t *testing.T) {
	cases := []struct {
		op   Opcode
		want MixClass
	}{
		{Iadd, MixArith},
		{Iload1, MixArith},
		{Istore2, MixArith},
		{Iinc, MixArith},
		{Dup, MixArith},
		{Dmul, MixFloat},
		{I2d, MixFloat},
		{Goto, MixControl},
		{IfIcmplt, MixControl},
		{Invokestatic, MixControl},
		{Ireturn, MixControl},
		{Ldc, MixStorage},
		{Iaload, MixStorage},
		{PutfieldQuick, MixStorage},
		{New, MixOther},
	}
	for _, c := range cases {
		if got := c.op.Group().Mix(); got != c.want {
			t.Errorf("%s: mix = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestInstructionLocalIndex(t *testing.T) {
	cases := []struct {
		in   Instruction
		want int
		ok   bool
	}{
		{Make(Iload2), 2, true},
		{MakeA(Iload, 7), 7, true},
		{Make(Dstore3), 3, true},
		{mustIinc(5, -1), 5, true},
		{Make(Iadd), 0, false},
		{Make(Aload0), 0, true},
	}
	for _, c := range cases {
		got, ok := c.in.LocalIndex()
		if got != c.want || ok != c.ok {
			t.Errorf("%s: LocalIndex = (%d,%v), want (%d,%v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func mustIinc(local, delta int) Instruction {
	in := Make(Iinc)
	in.A, in.B = int32(local), int32(delta)
	return in
}

func TestIntConst(t *testing.T) {
	cases := []struct {
		in   Instruction
		want int64
		ok   bool
	}{
		{Make(IconstM1), -1, true},
		{Make(Iconst5), 5, true},
		{MakeA(Bipush, -100), -100, true},
		{MakeA(Sipush, 30000), 30000, true},
		{Make(Lconst1), 1, true},
		{Make(Dup), 0, false},
	}
	for _, c := range cases {
		got, ok := c.in.IntConst()
		if got != c.want || ok != c.ok {
			t.Errorf("%s: IntConst = (%d,%v), want (%d,%v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestOpcodeTables: for every byte value, the arrays the accessors index
// answer exactly what a direct read of the map literals they are built
// from answers.
func TestOpcodeTables(t *testing.T) {
	var defined []Opcode
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		want, ok := infos[op]
		if ok {
			defined = append(defined, op)
		}
		if got, gotOK := Lookup(op); got != want || gotOK != ok {
			t.Errorf("0x%02x: Lookup = %+v, %v; literal %+v, %v", b, got, gotOK, want, ok)
		}
		if op.Group() != want.Group || op.IsDefined() != ok {
			t.Errorf("0x%02x: Group %v IsDefined %v; literal %v, %v", b, op.Group(), op.IsDefined(), want.Group, ok)
		}
		wantName := want.Mnemonic
		if !ok {
			wantName = fmt.Sprintf("op#0x%02x", b)
		}
		if op.String() != wantName {
			t.Errorf("0x%02x: String %q, want %q", b, op.String(), wantName)
		}

		in := Instruction{Op: op, A: 77, Target: 3}
		if in.IsBranch() != want.Branch || in.IsReturn() != (want.Group == GroupReturn) || in.IsCall() != (want.Group == GroupCall) {
			t.Errorf("0x%02x: IsBranch %v IsReturn %v IsCall %v disagree with %+v", b, in.IsBranch(), in.IsReturn(), in.IsCall(), want)
		}
		wantIdx, wantLocal := 0, false
		switch want.Group {
		case GroupLocalRead, GroupLocalWrite, GroupLocalInc:
			wantIdx, wantLocal = 77, true
			if idx, short := localIndexOps[op]; short {
				wantIdx = idx
			}
		}
		if idx, local := in.LocalIndex(); idx != wantIdx || local != wantLocal {
			t.Errorf("0x%02x: LocalIndex (%d, %v), want (%d, %v)", b, idx, local, wantIdx, wantLocal)
		}
		wantInt, wantIntOK := constOps[op]
		if op == Bipush || op == Sipush {
			wantInt, wantIntOK = 77, true
		}
		if v, isConst := in.IntConst(); v != wantInt || isConst != wantIntOK {
			t.Errorf("0x%02x: IntConst (%d, %v), want (%d, %v)", b, v, isConst, wantInt, wantIntOK)
		}
		wantFloat, wantFloatOK := constFloatOps[op]
		if v, isConst := in.FloatConst(); v != wantFloat || isConst != wantFloatOK {
			t.Errorf("0x%02x: FloatConst (%g, %v), want (%g, %v)", b, v, isConst, wantFloat, wantFloatOK)
		}
	}
	if got := Opcodes(); !slices.Equal(got, defined) {
		t.Errorf("Opcodes() = %v, want %v", got, defined)
	}
}

func TestAssemblerShortForms(t *testing.T) {
	a := NewAssembler()
	a.ILoad(0).ILoad(3).ILoad(4).DStore(2).DStore(9)
	instrs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := []Opcode{Iload0, Iload3, Iload, Dstore2, Dstore}
	for i, op := range want {
		if instrs[i].Op != op {
			t.Errorf("instr %d = %s, want %s", i, instrs[i].Op, op)
		}
	}
	if idx, _ := instrs[2].LocalIndex(); idx != 4 {
		t.Errorf("wide iload register = %d, want 4", idx)
	}
}

func TestAssemblerPushIntSelection(t *testing.T) {
	a := NewAssembler()
	a.PushInt(-1).PushInt(5).PushInt(6).PushInt(-128).PushInt(128).PushInt(-32768)
	instrs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := []Opcode{IconstM1, Iconst5, Bipush, Bipush, Sipush, Sipush}
	for i, op := range want {
		if instrs[i].Op != op {
			t.Errorf("instr %d = %s, want %s", i, instrs[i].Op, op)
		}
		v, ok := instrs[i].IntConst()
		if !ok {
			t.Errorf("instr %d: no IntConst", i)
		}
		_ = v
	}
}

func TestAssemblerBranchResolution(t *testing.T) {
	a := NewAssembler()
	a.Label("top").
		ILoad(0).
		Branch(Ifne, "exit").
		Branch(Goto, "top").
		Label("exit").
		Op(Return)
	instrs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if instrs[1].Target != 3 {
		t.Errorf("ifne target = %d, want 3", instrs[1].Target)
	}
	if instrs[2].Target != 0 {
		t.Errorf("goto target = %d, want 0", instrs[2].Target)
	}
	if !instrs[2].IsBranch() || instrs[2].IsConditional() {
		t.Errorf("goto classification wrong: branch=%v cond=%v", instrs[2].IsBranch(), instrs[2].IsConditional())
	}
	if !instrs[1].IsConditional() {
		t.Error("ifne should be conditional")
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := NewAssembler()
	a.Branch(Goto, "nowhere")
	if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("expected undefined-label error, got %v", err)
	}
}

func TestAssemblerDuplicateLabel(t *testing.T) {
	a := NewAssembler()
	a.Label("x").Op(Nop).Label("x")
	if _, err := a.Finish(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestMakeCallPopResolution(t *testing.T) {
	cases := []struct {
		op      Opcode
		argc    int
		returns bool
		wantPop int8
		wantPsh int8
	}{
		{Invokestatic, 2, true, 2, 1},
		{Invokestatic, 0, false, 0, 0},
		{Invokevirtual, 2, true, 3, 1},
		{Invokespecial, 0, false, 1, 0},
		{Invokeinterface, 1, true, 2, 1},
	}
	for _, c := range cases {
		in, err := makeCall(c.op, 9, c.argc, c.returns)
		if err != nil {
			t.Fatal(err)
		}
		if in.Pop != c.wantPop || in.Push != c.wantPsh {
			t.Errorf("%s argc=%d: pop/push = %d/%d, want %d/%d",
				c.op, c.argc, in.Pop, in.Push, c.wantPop, c.wantPsh)
		}
	}
}

type fixedResolver struct{ argc int }

func (f fixedResolver) CallEffect(int) (int, bool, error) { return f.argc, true, nil }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := NewAssembler()
	a.Label("loop").
		ILoad(1).
		PushInt(100).
		Branch(IfIcmpge, "done").
		ILoad(1).
		PushInt(-77).
		Op(Iadd).
		IStore(1).
		Iinc(1, 1).
		Field(Getfield, 12).
		Ldc(3, false).
		Ldc(300, false).
		Ldc(4, true).
		Call(Invokestatic, 7, 2, true).
		Op(Pop).
		Branch(Goto, "loop").
		Label("done").
		DLoad(2).
		Op(Dreturn)
	instrs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}

	code, err := Encode(instrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(code, fixedResolver{argc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(instrs) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(instrs))
	}
	for i := range instrs {
		w, g := instrs[i], got[i]
		if w.Op != g.Op || w.A != g.A || w.B != g.B || w.Target != g.Target ||
			w.Pop != g.Pop || w.Push != g.Push {
			t.Errorf("instr %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestEncodeDecodeSwitch(t *testing.T) {
	a := NewAssembler()
	a.ILoad(0).
		Switch(map[int64]string{1: "one", 5: "five", -3: "neg"}, "def").
		Label("one").Op(Iconst1).Op(Ireturn).
		Label("five").Op(Iconst5).Op(Ireturn).
		Label("neg").Op(IconstM1).Op(Ireturn).
		Label("def").Op(Iconst0).Op(Ireturn)
	instrs, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	switches := a.Switches()
	sw := instrs[1]
	keys, targets := Arms(switches, 1)
	if sw.Op != Lookupswitch || len(switches) != 1 || len(keys) != 3 {
		t.Fatalf("switch malformed: %+v %+v", sw, switches)
	}
	if keys[0] != -3 || keys[2] != 5 {
		t.Errorf("switch keys not sorted: %v", keys)
	}
	if sw.A != 0 || sw.B != 0 {
		t.Errorf("switch operands = %d, %d, want 0, 0", sw.A, sw.B)
	}

	code, err := Encode(instrs, switches)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSwitches, err := Decode(code, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := got[1]; g.Target != sw.Target {
		t.Errorf("default target = %d, want %d", g.Target, sw.Target)
	}
	gk, gt := Arms(gotSwitches, 1)
	if !slices.Equal(gk, keys) || !slices.Equal(gt, targets) {
		t.Errorf("arms: got %v -> %v, want %v -> %v", gk, gt, keys, targets)
	}
}

// TestAssemblerWideSwitch resolves a lookupswitch with 1000 arms. Its fixups
// must stay apart from the next instruction's: arm 999 of the switch at
// index 1 once shared a key with the default of index 2, so the arm kept
// target 0 and the iconst_1 after the switch became a branch.
func TestAssemblerWideSwitch(t *testing.T) {
	const arms = 1000
	a := NewAssembler()
	labels := make(map[int64]string, arms)
	for k := int64(0); k < arms; k++ {
		labels[k] = fmt.Sprintf("arm%d", k)
	}
	a.ILoad(0).Switch(labels, "def")
	for k := int64(0); k < arms; k++ {
		a.Label(labels[k]).Op(Iconst1).Op(Ireturn)
	}
	a.Label("def").Op(Iconst0).Op(Ireturn)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sw := code[1]
	if sw.Target != 2+2*arms {
		t.Errorf("default target = %d, want %d", sw.Target, 2+2*arms)
	}
	_, targets := Arms(a.Switches(), 1)
	if len(targets) != arms {
		t.Fatalf("switch has %d arms, want %d", len(targets), arms)
	}
	for i, target := range targets {
		if want := 2 + 2*i; target != want {
			t.Errorf("arm %d targets %d, want %d", i, target, want)
		}
	}
	for i, in := range code[2:] {
		if in.Target != NoTarget {
			t.Errorf("instruction %d (%s) got target %d, want none", i+2, in.Op, in.Target)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, c := range []struct {
		name string
		code []byte
	}{
		{"undefined opcode", []byte{0xfe}},
		{"truncated operand", []byte{byte(Bipush)}},
		{"branch into nowhere", []byte{byte(Goto), 0x00, 0x05}},
		{"branch before the body", []byte{byte(Goto), 0xff, 0xff}},
		{"invokedynamic reserved byte", []byte{byte(Invokedynamic), 0, 1, 1, 0}},
		{"invokeinterface reserved byte", []byte{byte(Invokeinterface), 0, 1, 1, 1}},
		{"unsorted lookupswitch keys", []byte{byte(Lookupswitch), 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
	} {
		if _, _, err := Decode(c.code, nil); err == nil {
			t.Errorf("%s: Decode accepted % x", c.name, c.code)
		}
	}
}

func TestDisassembleFormat(t *testing.T) {
	a := NewAssembler()
	a.ILoad(0).Iinc(2, 3).Branch(Goto, "l").Label("l").Op(Return)
	instrs, _ := a.Finish()
	d := Disassemble(instrs)
	for _, want := range []string{"iload_0", "iinc 2, 3", "goto -> #3", "return"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestNegativeBranchEncode(t *testing.T) {
	// A back branch must encode as a negative 16-bit offset and decode back.
	a := NewAssembler()
	a.Label("top").Op(Nop).Op(Nop).Branch(Goto, "top")
	instrs, _ := a.Finish()
	code, err := Encode(instrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(code, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Target != 0 {
		t.Errorf("back-branch target = %d, want 0", got[2].Target)
	}
}

// TestOperandsOutsideWidthRefused: an operand outside its opcode's
// architected width is an assembly error. Each of these once assembled,
// encoded and decoded back as another value (iinc 300, 1000 as iinc 44,
// -24; a switch key 1<<32 as 0, its arms then out of order).
func TestOperandsOutsideWidthRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		emit func(a *Assembler)
	}{
		{"iinc 300, 1000", func(a *Assembler) { a.Iinc(300, 1000) }},
		{"iinc 1, 1000", func(a *Assembler) { a.Iinc(1, 1000) }},
		{"bipush 1000", func(a *Assembler) { a.OpA(Bipush, 1000) }},
		{"bipush 1<<32", func(a *Assembler) { a.OpA(Bipush, 1<<32) }},
		{"sipush 40000", func(a *Assembler) { a.OpA(Sipush, 40000) }},
		{"iload 300", func(a *Assembler) { a.ILoad(300).Op(Pop) }},
		{"newarray 256", func(a *Assembler) { a.PushInt(1).OpA(Newarray, 256).Op(Pop) }},
		{"ldc_w 70000", func(a *Assembler) { a.Ldc(70000, false).Op(Pop) }},
		{"getstatic 1<<16", func(a *Assembler) { a.Field(Getstatic, 1<<16).Op(Pop) }},
		{"invokestatic cp 1<<16", func(a *Assembler) { a.Call(Invokestatic, 1<<16, 0, false) }},
		{"invokestatic 200 arguments", func(a *Assembler) { a.Call(Invokestatic, 1, 200, false) }},
		{"lookupswitch key 1<<32", func(a *Assembler) {
			a.ILoad(0).Switch(map[int64]string{1: "x", 1 << 32: "x"}, "x").Label("x")
		}},
	} {
		a := NewAssembler()
		c.emit(a)
		a.Op(Return)
		if code, err := a.Finish(); err == nil {
			t.Errorf("%s: assembled as %q", c.name, Disassemble(code))
		}
	}
}

// TestEncodeRefusesWhatDoesNotFit: Encode refuses a hand-built body that
// does not fit the architected form rather than truncating or dropping a
// field, or indexing outside the body.
func TestEncodeRefusesWhatDoesNotFit(t *testing.T) {
	with := func(in Instruction, f func(*Instruction)) Instruction { f(&in); return in }
	ret := Make(Return)
	for _, c := range []struct {
		name     string
		code     []Instruction
		switches []Switch
	}{
		{"bipush 1000", []Instruction{MakeA(Bipush, 1000), ret}, nil},
		{"iload 300", []Instruction{MakeA(Iload, 300), ret}, nil},
		{"iinc 1, 1000", []Instruction{mustIinc(1, 1000), ret}, nil},
		{"iadd with an operand", []Instruction{with(Make(Iadd), func(in *Instruction) { in.A = 1 }), ret}, nil},
		{"nop with a target", []Instruction{with(Make(Nop), func(in *Instruction) { in.Target = 0 }), ret}, nil},
		{"goto past the end", []Instruction{with(Make(Goto), func(in *Instruction) { in.Target = 7 }), ret}, nil},
		{"lookupswitch without a table", []Instruction{with(Make(Lookupswitch), func(in *Instruction) { in.Target = 1 }), ret}, nil},
		{"table on a non-switch", []Instruction{ret}, []Switch{{At: 0}}},
		{"switch key 1<<32", []Instruction{with(Make(Lookupswitch), func(in *Instruction) { in.Target = 1 }), ret},
			[]Switch{{At: 0, Keys: []int64{1 << 32}, Targets: []int{1}}}},
		{"switch keys out of order", []Instruction{with(Make(Lookupswitch), func(in *Instruction) { in.Target = 1 }), ret},
			[]Switch{{At: 0, Keys: []int64{2, 1}, Targets: []int{1, 1}}}},
		{"switch arm past the end", []Instruction{with(Make(Lookupswitch), func(in *Instruction) { in.Target = 1 }), ret},
			[]Switch{{At: 0, Keys: []int64{1}, Targets: []int{3}}}},
	} {
		if b, err := Encode(c.code, c.switches); err == nil {
			t.Errorf("%s: encoded as % x", c.name, b)
		}
	}
}
