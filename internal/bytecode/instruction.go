package bytecode

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// NoTarget marks the Target field of non-branch instructions.
const NoTarget = -1

// Instruction is a decoded ByteCode instruction in linear-address form.
//
// The JavaFlow fabric addresses instructions by their linear index in the
// method ("all instructions are a single length and the linear addresses are
// independent of the size of the ByteCode instructions", Section 4.2), so
// branch targets are instruction indices, not byte offsets. The byte-level
// encoding is handled by Encode/Decode.
//
// An Instruction is 16 bytes and holds no pointer, so a node's corpus of
// method bodies is never scanned by the garbage collector. Every operand
// fits its opcode's architected width (the Assembler and Encode refuse one
// that does not), which int32 always holds. A switch's arm table is not
// part of the instruction: it is a Switch, kept beside the body.
type Instruction struct {
	Op Opcode

	// Pop and Push are the resolved stack effects. For most instructions
	// they mirror the architected table; for invokes they are resolved
	// from the call signature by the General Purpose Processor before the
	// method is loaded into the fabric (Section 6.2). Pop is VarPop until
	// then.
	Pop, Push int8

	// A is the primary operand: the immediate constant for bipush/sipush,
	// the local register index for wide-form loads/stores/iinc/ret, or the
	// constant-pool index for ldc/field/invoke/new instructions.
	A int32
	// B is the secondary operand (the iinc delta, the invokeinterface
	// count byte, or the multianewarray dimensions).
	B int32

	// Target is the branch target as an instruction index, or NoTarget.
	// A switch's Target is its default.
	Target int32
}

// Switch is the arm table of the switch instruction at index At: key
// Keys[i] transfers control to instruction Targets[i]. A method keeps its
// tables in instruction order, one per switch instruction.
type Switch struct {
	At      int
	Keys    []int64
	Targets []int
}

// Arms returns the arm keys and targets of instruction i from switches, a
// body's tables in instruction order; nil, nil when i has none.
func Arms(switches []Switch, i int) (keys []int64, targets []int) {
	j, ok := slices.BinarySearchFunc(switches, i, func(s Switch, i int) int { return cmp.Compare(s.At, i) })
	if !ok {
		return nil, nil
	}
	return switches[j].Keys, switches[j].Targets
}

// CheckSwitches reports whether switches is a valid set of arm tables for
// code: exactly one per switch instruction, in instruction order, with one
// target per key, keys strictly ascending and within int32 (as the
// architecture requires), and every target inside the body. On a fault it
// also returns the index of the instruction at fault.
func CheckSwitches(code []Instruction, switches []Switch) (int, error) {
	// nextAt is where the next arm table sits, -1 once none is left: the
	// loop reads no table until an instruction is a switch or has one.
	next, nextAt := 0, -1
	if len(switches) > 0 {
		nextAt = switches[0].At
	}
	for i := range code {
		op := code[i].Op
		isSwitch := op == Lookupswitch || op == Tableswitch
		hasTable := i == nextAt
		switch {
		case !isSwitch && !hasTable:
			continue
		case !hasTable:
			return i, fmt.Errorf("%s has no arm table", op)
		case !isSwitch:
			return i, fmt.Errorf("%s has an arm table", op)
		}
		s := switches[next]
		next++
		if nextAt = -1; next < len(switches) {
			nextAt = switches[next].At
		}
		if len(s.Keys) != len(s.Targets) {
			return i, fmt.Errorf("%d arm keys for %d targets", len(s.Keys), len(s.Targets))
		}
		for arm, k := range s.Keys {
			if k != int64(int32(k)) {
				return i, fmt.Errorf("switch key %d outside int32", k)
			}
			if arm > 0 && k <= s.Keys[arm-1] {
				return i, fmt.Errorf("switch keys out of order (%d after %d)", k, s.Keys[arm-1])
			}
			if t := s.Targets[arm]; t < 0 || t > len(code) {
				return i, fmt.Errorf("arm %d targets out of range %d", arm, t)
			}
		}
	}
	if next < len(switches) {
		return switches[next].At, fmt.Errorf("arm table out of instruction order or outside the body")
	}
	return 0, nil
}

// checkOperands reports whether a and b fit the operand bytes op encodes
// them in. An operand op does not encode must be 0, or Encode would drop
// it.
func checkOperands(op Opcode, a, b int64) error {
	p := protoOf(op)
	if a < p.aMin || a > p.aMax {
		return fmt.Errorf("%s operand %d outside [%d, %d]", op, a, p.aMin, p.aMax)
	}
	if b < p.bMin || b > p.bMax {
		return fmt.Errorf("%s second operand %d outside [%d, %d]", op, b, p.bMin, p.bMax)
	}
	return nil
}

// operandBounds returns the ranges op's operand bytes hold for A and B.
func operandBounds(op Opcode, info *Info) (aMin, aMax, bMin, bMax int64) {
	switch {
	case info.Branch || info.OperandBytes <= 0:
	case op == Bipush:
		aMin, aMax = math.MinInt8, math.MaxInt8
	case op == Sipush:
		aMin, aMax = math.MinInt16, math.MaxInt16
	case op == Iinc:
		aMax, bMin, bMax = math.MaxUint8, math.MinInt8, math.MaxInt8
	case info.OperandBytes == 1:
		aMax = math.MaxUint8
	case op == Multianewarray || op == Invokeinterface:
		aMax, bMax = math.MaxUint16, math.MaxUint8
	default: // a 2-byte index; invokedynamic's other two bytes are zero
		aMax = math.MaxUint16
	}
	return aMin, aMax, bMin, bMax
}

// proto is what the assembler needs of an opcode for every instruction it
// emits, derived once from the Info table: the instruction Make returns,
// the operand ranges checkOperands enforces, and whether the opcode is
// plain: defined, with a fixed pop count, and neither a branch nor a
// switch, so that emitting it needs no further check.
type proto struct {
	in                     Instruction
	plain                  bool
	defined, varPop        bool
	branch, switchOp       bool
	aMin, aMax, bMin, bMax int64
}

var protos = func() *[256]proto {
	t := new([256]proto)
	for op := range t {
		info := &infoTable.val[op]
		p := &t[op]
		p.defined = infoTable.defined[op]
		p.varPop = info.Pop == VarPop
		p.branch = info.Branch
		p.switchOp = Opcode(op) == Lookupswitch || Opcode(op) == Tableswitch
		p.plain = p.defined && !p.varPop && !p.branch && !p.switchOp
		p.in = Instruction{Op: Opcode(op), Target: NoTarget, Pop: int8(info.Pop), Push: int8(info.Push)}
		p.aMin, p.aMax, p.bMin, p.bMax = operandBounds(Opcode(op), info)
	}
	return t
}()

// protoOf returns op's proto, panicking on undefined opcodes as
// MustLookup does.
func protoOf(op Opcode) *proto {
	p := &protos[op]
	if !p.defined {
		panic(fmt.Sprintf("bytecode: undefined opcode 0x%02x", byte(op)))
	}
	return p
}

// Make builds an instruction with architected pop/push counts resolved.
// It panics on VarPop opcodes (calls), which need resolving from the call
// signature.
func Make(op Opcode) Instruction {
	p := protoOf(op)
	if p.varPop {
		panic(fmt.Sprintf("bytecode: %s needs its call signature (signature-dependent pop)", op))
	}
	return p.in
}

// MakeA builds an instruction with a primary operand.
func MakeA(op Opcode, a int32) Instruction {
	in := Make(op)
	in.A = a
	return in
}

// makeCall builds an invoke instruction with its pop count resolved from
// the call signature: argc arguments plus one receiver for instance
// invokes, and a single pushed result when the callee returns a value.
func makeCall(op Opcode, cpIndex int64, argc int, returnsValue bool) (Instruction, error) {
	info := MustLookup(op)
	if info.Group != GroupCall {
		return Instruction{}, fmt.Errorf("%s is not a call opcode", op)
	}
	if err := checkOperands(op, cpIndex, 0); err != nil {
		return Instruction{}, err
	}
	pop := argc
	if op == Invokevirtual || op == Invokespecial || op == Invokeinterface {
		pop++ // objectref
	}
	if argc < 0 || pop > math.MaxInt8 {
		return Instruction{}, fmt.Errorf("%s with %d arguments: pop count outside [0, %d]", op, argc, math.MaxInt8)
	}
	push := int8(0)
	if returnsValue {
		push = 1
	}
	return Instruction{Op: op, A: int32(cpIndex), Target: NoTarget, Pop: int8(pop), Push: push}, nil
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
		return int64(in.A), true
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
