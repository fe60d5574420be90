package bytecode

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: PushInt followed by IntConst is the identity for every value in
// sipush range.
func TestPushIntRoundTripProperty(t *testing.T) {
	f := func(v int16) bool {
		a := NewAssembler()
		a.PushInt(int64(v))
		instrs, err := a.Finish()
		if err != nil || len(instrs) != 1 {
			return false
		}
		got, ok := instrs[0].IntConst()
		return ok && got == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Local() round-trips the register number for every load/store
// base opcode and register.
func TestLocalRoundTripProperty(t *testing.T) {
	bases := []Opcode{Iload, Lload, Fload, Dload, Aload, Istore, Lstore, Fstore, Dstore, Astore}
	f := func(baseIdx uint8, regRaw uint8) bool {
		base := bases[int(baseIdx)%len(bases)]
		reg := int(regRaw) % 64
		a := NewAssembler()
		a.Local(base, reg)
		instrs, err := a.Finish()
		if err != nil || len(instrs) != 1 {
			return false
		}
		got, ok := instrs[0].LocalIndex()
		return ok && got == reg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Encode/Decode round-trips randomly generated (valid) straight-
// line programs with interleaved branches.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAssembler()
		n := 3 + rng.Intn(40)
		a.Label("top")
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				a.PushInt(int64(rng.Intn(1 << 14)))
				a.IStore(rng.Intn(4))
			case 1:
				a.ILoad(rng.Intn(4)).ILoad(rng.Intn(4)).Op(Iadd).IStore(rng.Intn(4))
			case 2:
				a.Iinc(rng.Intn(4), rng.Intn(100)-50)
			case 3:
				a.ILoad(rng.Intn(4)).Branch(Ifle, "end")
			case 4:
				a.ILoad(rng.Intn(4)).Branch(Ifgt, "top")
			default:
				a.Op(Nop)
			}
		}
		a.Label("end").Op(Return)
		instrs, err := a.Finish()
		if err != nil {
			return false
		}
		code, err := Encode(instrs, nil)
		if err != nil {
			return false
		}
		got, _, err := Decode(code, nil)
		if err != nil || len(got) != len(instrs) {
			return false
		}
		for i := range instrs {
			w, g := instrs[i], got[i]
			if w.Op != g.Op || w.A != g.A || w.B != g.B || w.Target != g.Target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every defined opcode's group maps to exactly one mix class and
// String() never panics or returns empty.
func TestOpcodeTotalityProperty(t *testing.T) {
	f := func(raw byte) bool {
		op := Opcode(raw)
		_ = op.String() // must not panic
		if !op.IsDefined() {
			return op.Group() == GroupInvalid
		}
		g := op.Group()
		if g == GroupInvalid {
			return false
		}
		m := g.Mix()
		return m <= MixOther && g.String() != "" && m.String() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
