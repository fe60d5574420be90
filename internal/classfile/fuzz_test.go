package classfile

import (
	"testing"

	"javaflow/internal/bytecode"
)

// fuzzResolver resolves every call site from its constant-pool index alone
// (argc in the low two bits, a returned value in bit 2), so a decoded
// stream with calls reaches Verify's stack walk.
type fuzzResolver struct{}

func (fuzzResolver) CallEffect(cpIndex int) (int, bool, error) {
	return cpIndex % 4, cpIndex&4 != 0, nil
}

// FuzzVerify builds a Method from bytecode.Decode of the fuzz bytes (call
// sites resolved by fuzzResolver, or left unresolved) and fuzzed MaxLocals,
// Argc, declared MaxStack and receiver, and holds Verify to refVerify:
// neither panics, both give the same verdict and error text and stamp the
// same MaxStack, and verifying a verified method again changes nothing.
// The seeds in testdata/fuzz/FuzzVerify are corpus method encodings (call
// sites renumbered to their effect under fuzzResolver) and one method per
// verdict: jsr/ret, a lookupswitch, an unreachable
// instruction, a merge at two depths, a register out of range.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{byte(bytecode.Iconst0), byte(bytecode.Ireturn)}, uint8(1), uint8(0), uint8(0), false, true)
	f.Fuzz(func(t *testing.T, code []byte, maxLocals, argc, maxStack uint8, instance, resolve bool) {
		var resolver bytecode.SignatureResolver
		if resolve {
			resolver = fuzzResolver{}
		}
		instrs, switches, err := bytecode.Decode(code, resolver)
		if err != nil {
			return
		}
		build := func() *Method {
			return &Method{
				Class: "Fuzz", Name: "m", Argc: int(argc), Instance: instance,
				MaxLocals: int(maxLocals), MaxStack: int(maxStack),
				Code: instrs, Switches: switches,
			}
		}
		got, want := build(), build()
		gotErr, wantErr := Verify(got), refVerify(want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Verify = %v, refVerify = %v\n%s", gotErr, wantErr, bytecode.Disassemble(instrs))
		}
		if got.MaxStack != want.MaxStack {
			t.Fatalf("Verify stamps MaxStack %d, refVerify %d", got.MaxStack, want.MaxStack)
		}
		if gotErr != nil {
			return
		}
		hash := got.Hash()
		if err := Verify(got); err != nil || got.MaxStack != want.MaxStack || got.Hash() != hash {
			t.Fatalf("second Verify: err %v, MaxStack %d (was %d), hash %x (was %x)",
				err, got.MaxStack, want.MaxStack, got.Hash(), hash)
		}
	})
}

// TestVerifyMatchesReference holds Verify to refVerify on hand-built
// bodies Decode never returns (targets outside the body or unset, unset
// call effects, undefined opcodes, arm tables that do not fit), where a
// walk that trusts its input would go wrong.
func TestVerifyMatchesReference(t *testing.T) {
	I := func(op bytecode.Opcode, a, target int32) bytecode.Instruction {
		in := bytecode.Instruction{Op: op, A: a, Target: target}
		if info, ok := bytecode.Lookup(op); ok {
			in.Pop, in.Push = int8(info.Pop), int8(info.Push)
		}
		return in
	}
	const none = bytecode.NoTarget
	ret := I(bytecode.Return, 0, none)
	bodies := map[string][]bytecode.Instruction{
		"goto unset":       {I(bytecode.Goto, 0, none), ret},
		"goto negative":    {I(bytecode.Goto, 0, -5), ret},
		"goto past end":    {I(bytecode.Goto, 0, 2), ret},
		"goto self":        {I(bytecode.Goto, 0, 0)},
		"goto_w forward":   {I(bytecode.GotoW, 0, 1), ret},
		"jsr unset":        {I(bytecode.Jsr, 0, none), ret},
		"jsr past end":     {I(bytecode.Jsr, 0, 9), ret},
		"jsr at end":       {I(bytecode.Iconst0, 0, none), I(bytecode.Ifeq, 0, 3), ret, I(bytecode.Jsr, 0, 2)},
		"branch unset":     {I(bytecode.Iconst0, 0, none), I(bytecode.Ifeq, 0, none), ret},
		"branch past end":  {I(bytecode.Iconst0, 0, none), I(bytecode.Ifeq, 0, 7), ret},
		"branch at end":    {I(bytecode.Iconst0, 0, none), I(bytecode.Ifeq, 0, 0)},
		"falls off":        {I(bytecode.Nop, 0, none)},
		"unresolved call":  {I(bytecode.Invokestatic, 1, none), ret},
		"undefined opcode": {I(0xe0, 0, none), ret},
		"ret":              {I(bytecode.Ret, 3, none)},
		"wide register":    {I(bytecode.Iload, 200, none), I(bytecode.Pop, 0, none), ret},
		"value left":       {I(bytecode.Iconst0, 0, none), I(bytecode.Iconst0, 0, none), I(bytecode.Ireturn, 0, none)},
		"underflow":        {I(bytecode.Ireturn, 0, none)},
		"merge":            {I(bytecode.Iconst0, 0, none), I(bytecode.Ifeq, 0, 3), I(bytecode.Iconst1, 0, none), I(bytecode.Return, 0, none)},
		"switch":           {I(bytecode.Iconst0, 0, none), I(bytecode.Lookupswitch, 0, 2), ret, ret},
		"switch unset":     {I(bytecode.Iconst0, 0, none), I(bytecode.Lookupswitch, 0, none), ret},
	}
	switches := map[string][]bytecode.Switch{
		"switch":       {{At: 1, Keys: []int64{1, 2}, Targets: []int{3, 4}}},
		"switch unset": {{At: 1, Keys: []int64{1}, Targets: []int{-1}}},
	}
	for name, code := range bodies {
		for _, maxLocals := range []int{0, 4} {
			build := func() *Method {
				return &Method{Class: "T", Name: name, MaxLocals: maxLocals, Code: code, Switches: switches[name]}
			}
			got, want := build(), build()
			gotErr, wantErr := Verify(got), refVerify(want)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() || got.MaxStack != want.MaxStack {
				t.Errorf("%s, MaxLocals %d: Verify = %v (MaxStack %d), refVerify = %v (MaxStack %d)",
					name, maxLocals, gotErr, got.MaxStack, wantErr, want.MaxStack)
			}
		}
	}
}
