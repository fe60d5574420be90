package bytecode

import "fmt"

// NoTarget marks the Target field of non-branch instructions.
const NoTarget = -1

// Instruction is a decoded ByteCode instruction in linear-address form.
//
// The JavaFlow fabric addresses instructions by their linear index in the
// method ("all instructions are a single length and the linear addresses are
// independent of the size of the ByteCode instructions", Section 4.2), so
// branch targets are instruction indices, not byte offsets. The byte-level
// encoding is handled by Encode/Decode.
type Instruction struct {
	Op Opcode

	// A is the primary operand: the immediate constant for bipush/sipush,
	// the local register index for wide-form loads/stores/iinc/ret, or the
	// constant-pool index for ldc/field/invoke/new instructions.
	A int64
	// B is the secondary operand (the iinc delta, or the invokeinterface
	// count byte).
	B int64

	// Target is the branch target as an instruction index, or NoTarget.
	Target int

	// Switch is the arm table of a tableswitch/lookupswitch, whose Target
	// holds the default; nil for every other opcode. A pointer rather than
	// two inline slices keeps Instruction at 56 bytes, and generated method
	// bodies carry no switches at all.
	Switch *Switch

	// Pop and Push are the resolved stack effects. For most instructions
	// they mirror the architected table; for invokes they are resolved
	// from the call signature by the General Purpose Processor before the
	// method is loaded into the fabric (Section 6.2).
	Pop, Push int
}

// Switch is a switch instruction's arm table: key Keys[i] transfers
// control to instruction Targets[i].
type Switch struct {
	Keys    []int64
	Targets []int
}

// SwitchKeys returns the switch arm keys; nil when the instruction has no
// arm table.
func (in Instruction) SwitchKeys() []int64 {
	if in.Switch == nil {
		return nil
	}
	return in.Switch.Keys
}

// SwitchTargets returns the switch arm targets, parallel to SwitchKeys;
// nil when the instruction has no arm table.
func (in Instruction) SwitchTargets() []int {
	if in.Switch == nil {
		return nil
	}
	return in.Switch.Targets
}

// Make builds an instruction with architected pop/push counts resolved.
// It panics on VarPop opcodes (calls), which need MakeCall.
func Make(op Opcode) Instruction {
	info := MustLookup(op)
	if info.Pop == VarPop {
		panic(fmt.Sprintf("bytecode: %s needs MakeCall (signature-dependent pop)", op))
	}
	return Instruction{Op: op, Target: NoTarget, Pop: info.Pop, Push: info.Push}
}

// MakeA builds an instruction with a primary operand.
func MakeA(op Opcode, a int64) Instruction {
	in := Make(op)
	in.A = a
	return in
}

// MakeCall builds an invoke instruction with its pop count resolved from the
// call signature: argc arguments plus one receiver for instance invokes, and
// a single pushed result when the callee returns a value.
func MakeCall(op Opcode, cpIndex int64, argc int, returnsValue bool) Instruction {
	info := MustLookup(op)
	if info.Group != GroupCall {
		panic(fmt.Sprintf("bytecode: MakeCall on non-call opcode %s", op))
	}
	pop := argc
	if op == Invokevirtual || op == Invokespecial || op == Invokeinterface {
		pop++ // objectref
	}
	push := 0
	if returnsValue {
		push = 1
	}
	return Instruction{Op: op, A: cpIndex, Target: NoTarget, Pop: pop, Push: push}
}

// Info returns the architected description of the instruction's opcode.
func (in Instruction) Info() Info { return MustLookup(in.Op) }

// Group returns the instruction group.
func (in Instruction) Group() Group { return in.Op.Group() }

// IsBranch reports whether the instruction may transfer control to Target.
func (in Instruction) IsBranch() bool {
	return in.Target != NoTarget && infoTable.val[in.Op].Branch
}

// IsConditional reports whether the instruction is a conditional jump (it
// has both a taken and a not-taken successor).
func (in Instruction) IsConditional() bool {
	return in.IsBranch() && in.Op != Goto && in.Op != GotoW
}

// IsReturn reports whether the instruction ends the method.
func (in Instruction) IsReturn() bool { return infoTable.val[in.Op].Group == GroupReturn }

// IsCall reports whether the instruction invokes another method.
func (in Instruction) IsCall() bool { return infoTable.val[in.Op].Group == GroupCall }

// localIndexOps maps the short-form load/store opcodes to their implicit
// register numbers.
var localIndexOps = map[Opcode]int{
	Iload0: 0, Iload1: 1, Iload2: 2, Iload3: 3,
	Lload0: 0, Lload1: 1, Lload2: 2, Lload3: 3,
	Fload0: 0, Fload1: 1, Fload2: 2, Fload3: 3,
	Dload0: 0, Dload1: 1, Dload2: 2, Dload3: 3,
	Aload0: 0, Aload1: 1, Aload2: 2, Aload3: 3,
	Istore0: 0, Istore1: 1, Istore2: 2, Istore3: 3,
	Lstore0: 0, Lstore1: 1, Lstore2: 2, Lstore3: 3,
	Fstore0: 0, Fstore1: 1, Fstore2: 2, Fstore3: 3,
	Dstore0: 0, Dstore1: 1, Dstore2: 2, Dstore3: 3,
	Astore0: 0, Astore1: 1, Astore2: 2, Astore3: 3,
}

var localIndexTable = tableOf(localIndexOps)

// LocalIndex returns the local register accessed by the instruction and true
// for local reads, writes and increments; otherwise (0, false).
func (in Instruction) LocalIndex() (int, bool) {
	switch infoTable.val[in.Op].Group {
	case GroupLocalRead, GroupLocalWrite, GroupLocalInc:
		if localIndexTable.defined[in.Op] {
			return localIndexTable.val[in.Op], true
		}
		return int(in.A), true
	}
	return 0, false
}

// constOps maps constant-pushing opcodes to their implicit integer payloads.
var constOps = map[Opcode]int64{
	IconstM1: -1, Iconst0: 0, Iconst1: 1, Iconst2: 2,
	Iconst3: 3, Iconst4: 4, Iconst5: 5,
	Lconst0: 0, Lconst1: 1,
}

// constFloatOps maps float/double constant opcodes to their payloads.
var constFloatOps = map[Opcode]float64{
	Fconst0: 0, Fconst1: 1, Fconst2: 2,
	Dconst0: 0, Dconst1: 1,
}

var (
	constTable      = tableOf(constOps)
	constFloatTable = tableOf(constFloatOps)
)

// IntConst returns the immediate integer constant produced by the
// instruction, if it is an integer constant producer.
func (in Instruction) IntConst() (int64, bool) {
	if constTable.defined[in.Op] {
		return constTable.val[in.Op], true
	}
	switch in.Op {
	case Bipush, Sipush:
		return in.A, true
	}
	return 0, false
}

// FloatConst returns the immediate floating constant produced by the
// instruction, if any.
func (in Instruction) FloatConst() (float64, bool) {
	return constFloatTable.val[in.Op], constFloatTable.defined[in.Op]
}

// String renders the instruction in JAVAP-like form (without addresses).
func (in Instruction) String() string {
	info := in.Info()
	switch {
	case in.Op == Iinc:
		return fmt.Sprintf("%s %d, %d", info.Mnemonic, in.A, in.B)
	case in.Target != NoTarget:
		return fmt.Sprintf("%s -> #%d", info.Mnemonic, in.Target)
	case info.OperandBytes > 0:
		return fmt.Sprintf("%s %d", info.Mnemonic, in.A)
	default:
		return info.Mnemonic
	}
}
