// Package bytecode defines the Java Virtual Machine instruction set as used
// by the JavaFlow machine: every architected opcode, its operand layout, its
// stack pop/push behaviour (Appendix A of the dissertation), and its
// instruction group, which determines both the kind of Instruction Node that
// can host it in the DataFlow Fabric and its execution latency.
//
// The package also provides an assembler for building methods
// programmatically (used by the synthetic SPEC-analog workload corpus), a
// binary encoder/decoder, and a JAVAP-style disassembler.
//
// The load-bearing invariant is encode/decode round-tripping: a method
// body's bytes are its identity (the store and the replication dedup key
// both hash them), so assembling, encoding and re-decoding a method must
// reproduce the original stream exactly.
package bytecode

import "fmt"

// Opcode is a single-byte JVM operation code.
type Opcode byte

// The complete architected opcode set of the Java Virtual Machine.
const (
	Nop             Opcode = 0x00
	AconstNull      Opcode = 0x01
	IconstM1        Opcode = 0x02
	Iconst0         Opcode = 0x03
	Iconst1         Opcode = 0x04
	Iconst2         Opcode = 0x05
	Iconst3         Opcode = 0x06
	Iconst4         Opcode = 0x07
	Iconst5         Opcode = 0x08
	Lconst0         Opcode = 0x09
	Lconst1         Opcode = 0x0a
	Fconst0         Opcode = 0x0b
	Fconst1         Opcode = 0x0c
	Fconst2         Opcode = 0x0d
	Dconst0         Opcode = 0x0e
	Dconst1         Opcode = 0x0f
	Bipush          Opcode = 0x10
	Sipush          Opcode = 0x11
	Ldc             Opcode = 0x12
	LdcW            Opcode = 0x13
	Ldc2W           Opcode = 0x14
	Iload           Opcode = 0x15
	Lload           Opcode = 0x16
	Fload           Opcode = 0x17
	Dload           Opcode = 0x18
	Aload           Opcode = 0x19
	Iload0          Opcode = 0x1a
	Iload1          Opcode = 0x1b
	Iload2          Opcode = 0x1c
	Iload3          Opcode = 0x1d
	Lload0          Opcode = 0x1e
	Lload1          Opcode = 0x1f
	Lload2          Opcode = 0x20
	Lload3          Opcode = 0x21
	Fload0          Opcode = 0x22
	Fload1          Opcode = 0x23
	Fload2          Opcode = 0x24
	Fload3          Opcode = 0x25
	Dload0          Opcode = 0x26
	Dload1          Opcode = 0x27
	Dload2          Opcode = 0x28
	Dload3          Opcode = 0x29
	Aload0          Opcode = 0x2a
	Aload1          Opcode = 0x2b
	Aload2          Opcode = 0x2c
	Aload3          Opcode = 0x2d
	Iaload          Opcode = 0x2e
	Laload          Opcode = 0x2f
	Faload          Opcode = 0x30
	Daload          Opcode = 0x31
	Aaload          Opcode = 0x32
	Baload          Opcode = 0x33
	Caload          Opcode = 0x34
	Saload          Opcode = 0x35
	Istore          Opcode = 0x36
	Lstore          Opcode = 0x37
	Fstore          Opcode = 0x38
	Dstore          Opcode = 0x39
	Astore          Opcode = 0x3a
	Istore0         Opcode = 0x3b
	Istore1         Opcode = 0x3c
	Istore2         Opcode = 0x3d
	Istore3         Opcode = 0x3e
	Lstore0         Opcode = 0x3f
	Lstore1         Opcode = 0x40
	Lstore2         Opcode = 0x41
	Lstore3         Opcode = 0x42
	Fstore0         Opcode = 0x43
	Fstore1         Opcode = 0x44
	Fstore2         Opcode = 0x45
	Fstore3         Opcode = 0x46
	Dstore0         Opcode = 0x47
	Dstore1         Opcode = 0x48
	Dstore2         Opcode = 0x49
	Dstore3         Opcode = 0x4a
	Astore0         Opcode = 0x4b
	Astore1         Opcode = 0x4c
	Astore2         Opcode = 0x4d
	Astore3         Opcode = 0x4e
	Iastore         Opcode = 0x4f
	Lastore         Opcode = 0x50
	Fastore         Opcode = 0x51
	Dastore         Opcode = 0x52
	Aastore         Opcode = 0x53
	Bastore         Opcode = 0x54
	Castore         Opcode = 0x55
	Sastore         Opcode = 0x56
	Pop             Opcode = 0x57
	Pop2            Opcode = 0x58
	Dup             Opcode = 0x59
	DupX1           Opcode = 0x5a
	DupX2           Opcode = 0x5b
	Dup2            Opcode = 0x5c
	Dup2X1          Opcode = 0x5d
	Dup2X2          Opcode = 0x5e
	Swap            Opcode = 0x5f
	Iadd            Opcode = 0x60
	Ladd            Opcode = 0x61
	Fadd            Opcode = 0x62
	Dadd            Opcode = 0x63
	Isub            Opcode = 0x64
	Lsub            Opcode = 0x65
	Fsub            Opcode = 0x66
	Dsub            Opcode = 0x67
	Imul            Opcode = 0x68
	Lmul            Opcode = 0x69
	Fmul            Opcode = 0x6a
	Dmul            Opcode = 0x6b
	Idiv            Opcode = 0x6c
	Ldiv            Opcode = 0x6d
	Fdiv            Opcode = 0x6e
	Ddiv            Opcode = 0x6f
	Irem            Opcode = 0x70
	Lrem            Opcode = 0x71
	Frem            Opcode = 0x72
	Drem            Opcode = 0x73
	Ineg            Opcode = 0x74
	Lneg            Opcode = 0x75
	Fneg            Opcode = 0x76
	Dneg            Opcode = 0x77
	Ishl            Opcode = 0x78
	Lshl            Opcode = 0x79
	Ishr            Opcode = 0x7a
	Lshr            Opcode = 0x7b
	Iushr           Opcode = 0x7c
	Lushr           Opcode = 0x7d
	Iand            Opcode = 0x7e
	Land            Opcode = 0x7f
	Ior             Opcode = 0x80
	Lor             Opcode = 0x81
	Ixor            Opcode = 0x82
	Lxor            Opcode = 0x83
	Iinc            Opcode = 0x84
	I2l             Opcode = 0x85
	I2f             Opcode = 0x86
	I2d             Opcode = 0x87
	L2i             Opcode = 0x88
	L2f             Opcode = 0x89
	L2d             Opcode = 0x8a
	F2i             Opcode = 0x8b
	F2l             Opcode = 0x8c
	F2d             Opcode = 0x8d
	D2i             Opcode = 0x8e
	D2l             Opcode = 0x8f
	D2f             Opcode = 0x90
	I2b             Opcode = 0x91
	I2c             Opcode = 0x92
	I2s             Opcode = 0x93
	Lcmp            Opcode = 0x94
	Fcmpl           Opcode = 0x95
	Fcmpg           Opcode = 0x96
	Dcmpl           Opcode = 0x97
	Dcmpg           Opcode = 0x98
	Ifeq            Opcode = 0x99
	Ifne            Opcode = 0x9a
	Iflt            Opcode = 0x9b
	Ifge            Opcode = 0x9c
	Ifgt            Opcode = 0x9d
	Ifle            Opcode = 0x9e
	IfIcmpeq        Opcode = 0x9f
	IfIcmpne        Opcode = 0xa0
	IfIcmplt        Opcode = 0xa1
	IfIcmpge        Opcode = 0xa2
	IfIcmpgt        Opcode = 0xa3
	IfIcmple        Opcode = 0xa4
	IfAcmpeq        Opcode = 0xa5
	IfAcmpne        Opcode = 0xa6
	Goto            Opcode = 0xa7
	Jsr             Opcode = 0xa8
	Ret             Opcode = 0xa9
	Tableswitch     Opcode = 0xaa
	Lookupswitch    Opcode = 0xab
	Ireturn         Opcode = 0xac
	Lreturn         Opcode = 0xad
	Freturn         Opcode = 0xae
	Dreturn         Opcode = 0xaf
	Areturn         Opcode = 0xb0
	Return          Opcode = 0xb1
	Getstatic       Opcode = 0xb2
	Putstatic       Opcode = 0xb3
	Getfield        Opcode = 0xb4
	Putfield        Opcode = 0xb5
	Invokevirtual   Opcode = 0xb6
	Invokespecial   Opcode = 0xb7
	Invokestatic    Opcode = 0xb8
	Invokeinterface Opcode = 0xb9
	Invokedynamic   Opcode = 0xba
	New             Opcode = 0xbb
	Newarray        Opcode = 0xbc
	Anewarray       Opcode = 0xbd
	Arraylength     Opcode = 0xbe
	Athrow          Opcode = 0xbf
	Checkcast       Opcode = 0xc0
	Instanceof      Opcode = 0xc1
	Monitorenter    Opcode = 0xc2
	Monitorexit     Opcode = 0xc3
	Wide            Opcode = 0xc4
	Multianewarray  Opcode = 0xc5
	Ifnull          Opcode = 0xc6
	Ifnonnull       Opcode = 0xc7
	GotoW           Opcode = 0xc8
	JsrW            Opcode = 0xc9

	// _Quick storage opcodes: non-architected variants used after the
	// constant-pool reference has been resolved to a direct offset
	// (Section 3.6 / Table 5 of the dissertation). The JavaFlow fabric
	// executes the _Quick forms; the interpreter rewrites the base form on
	// first execution, exactly as classic interpreters do.
	GetstaticQuick Opcode = 0xd2
	PutstaticQuick Opcode = 0xd3
	GetfieldQuick  Opcode = 0xd4
	PutfieldQuick  Opcode = 0xd5
)

// Group classifies instructions by processing behaviour, following the
// Appendix A tables. The group determines firing rules in the fabric
// (Section 6.3), the Instruction Node kind that may host the instruction,
// and the execution latency (Table 17).
type Group uint8

const (
	GroupInvalid    Group = iota
	GroupMove             // constants onto stack, dup/pop/swap (Table 31)
	GroupIntArith         // integer & logical arithmetic (Table 30)
	GroupFloatArith       // floating-point arithmetic & compares (Table 32)
	GroupFloatConv        // int/float/long/double conversions (Table 29)
	GroupControl          // conditional jumps and goto (Table 33)
	GroupCall             // invoke* (Table 34)
	GroupReturn           // *return, athrow (Table 35)
	GroupMemConst         // ldc family: unordered constant-pool reads (Table 36)
	GroupMemRead          // array loads, getfield/getstatic (Table 37)
	GroupMemWrite         // array stores, putfield/putstatic (Table 38)
	GroupLocalRead        // *load: register to dataflow (Table 39)
	GroupLocalWrite       // *store: dataflow to register (Table 40)
	GroupLocalInc         // iinc (Table 39, local increment)
	GroupSpecial          // new/checkcast/monitor/switch/jsr/wide… GPP-serviced (Table 41)
)

var groupNames = map[Group]string{
	GroupInvalid:    "invalid",
	GroupMove:       "move",
	GroupIntArith:   "int-arith",
	GroupFloatArith: "float-arith",
	GroupFloatConv:  "float-conv",
	GroupControl:    "control",
	GroupCall:       "call",
	GroupReturn:     "return",
	GroupMemConst:   "mem-const",
	GroupMemRead:    "mem-read",
	GroupMemWrite:   "mem-write",
	GroupLocalRead:  "local-read",
	GroupLocalWrite: "local-write",
	GroupLocalInc:   "local-inc",
	GroupSpecial:    "special",
}

func (g Group) String() string {
	if s, ok := groupNames[g]; ok {
		return s
	}
	return fmt.Sprintf("Group(%d)", uint8(g))
}

// MixClass is the coarse 4-way classification used for the static-mix
// analysis (Table 6) and for sizing the heterogeneous DataFlow Fabric
// (Figure 26): 6 arithmetic, 1 floating point, 2 storage, 1 control per 10
// Instruction Nodes.
type MixClass uint8

const (
	MixArith   MixClass = iota // integer arithmetic, moves, local register ops
	MixFloat                   // floating point arithmetic and conversions
	MixControl                 // jumps, goto, calls, returns
	MixStorage                 // memory reads/writes/constants
	MixOther                   // specials serviced by the GPP
)

func (m MixClass) String() string {
	switch m {
	case MixArith:
		return "arith"
	case MixFloat:
		return "float"
	case MixControl:
		return "control"
	case MixStorage:
		return "storage"
	default:
		return "other"
	}
}

// Mix maps an instruction group onto its static-mix class.
func (g Group) Mix() MixClass {
	switch g {
	case GroupMove, GroupIntArith, GroupLocalRead, GroupLocalWrite, GroupLocalInc:
		return MixArith
	case GroupFloatArith, GroupFloatConv:
		return MixFloat
	case GroupControl, GroupCall, GroupReturn:
		return MixControl
	case GroupMemConst, GroupMemRead, GroupMemWrite:
		return MixStorage
	default:
		return MixOther
	}
}

// VarPop marks instructions whose pop count depends on the call signature
// and is resolved by the General Purpose Processor before loading
// (Section 6.2, "Loading a Method").
const VarPop = -1

// Info describes the architected behaviour of one opcode.
type Info struct {
	Mnemonic string
	// OperandBytes is the number of immediate operand bytes following the
	// opcode in the encoded stream (VarLen for switch instructions).
	OperandBytes int
	// Pop and Push are the stack element counts consumed/produced
	// (Appendix A). Each value occupies one element regardless of width;
	// wide (long/double) payloads are carried as SUBSEQUENT_MESSAGE pairs
	// on the networks but count as a single dataflow token.
	Pop, Push int
	Group     Group
	// Branch reports whether the operand is a branch offset.
	Branch bool
}

// VarLen marks variable-length instructions (tableswitch/lookupswitch).
const VarLen = -1

var infos = map[Opcode]Info{
	Nop:        {"nop", 0, 0, 0, GroupMove, false},
	AconstNull: {"aconst_null", 0, 0, 1, GroupMove, false},
	IconstM1:   {"iconst_m1", 0, 0, 1, GroupMove, false},
	Iconst0:    {"iconst_0", 0, 0, 1, GroupMove, false},
	Iconst1:    {"iconst_1", 0, 0, 1, GroupMove, false},
	Iconst2:    {"iconst_2", 0, 0, 1, GroupMove, false},
	Iconst3:    {"iconst_3", 0, 0, 1, GroupMove, false},
	Iconst4:    {"iconst_4", 0, 0, 1, GroupMove, false},
	Iconst5:    {"iconst_5", 0, 0, 1, GroupMove, false},
	Lconst0:    {"lconst_0", 0, 0, 1, GroupMove, false},
	Lconst1:    {"lconst_1", 0, 0, 1, GroupMove, false},
	Fconst0:    {"fconst_0", 0, 0, 1, GroupMove, false},
	Fconst1:    {"fconst_1", 0, 0, 1, GroupMove, false},
	Fconst2:    {"fconst_2", 0, 0, 1, GroupMove, false},
	Dconst0:    {"dconst_0", 0, 0, 1, GroupMove, false},
	Dconst1:    {"dconst_1", 0, 0, 1, GroupMove, false},
	Bipush:     {"bipush", 1, 0, 1, GroupMove, false},
	Sipush:     {"sipush", 2, 0, 1, GroupMove, false},
	Ldc:        {"ldc", 1, 0, 1, GroupMemConst, false},
	LdcW:       {"ldc_w", 2, 0, 1, GroupMemConst, false},
	Ldc2W:      {"ldc2_w", 2, 0, 1, GroupMemConst, false},

	Iload: {"iload", 1, 0, 1, GroupLocalRead, false},
	Lload: {"lload", 1, 0, 1, GroupLocalRead, false},
	Fload: {"fload", 1, 0, 1, GroupLocalRead, false},
	Dload: {"dload", 1, 0, 1, GroupLocalRead, false},
	Aload: {"aload", 1, 0, 1, GroupLocalRead, false},

	Iload0: {"iload_0", 0, 0, 1, GroupLocalRead, false},
	Iload1: {"iload_1", 0, 0, 1, GroupLocalRead, false},
	Iload2: {"iload_2", 0, 0, 1, GroupLocalRead, false},
	Iload3: {"iload_3", 0, 0, 1, GroupLocalRead, false},
	Lload0: {"lload_0", 0, 0, 1, GroupLocalRead, false},
	Lload1: {"lload_1", 0, 0, 1, GroupLocalRead, false},
	Lload2: {"lload_2", 0, 0, 1, GroupLocalRead, false},
	Lload3: {"lload_3", 0, 0, 1, GroupLocalRead, false},
	Fload0: {"fload_0", 0, 0, 1, GroupLocalRead, false},
	Fload1: {"fload_1", 0, 0, 1, GroupLocalRead, false},
	Fload2: {"fload_2", 0, 0, 1, GroupLocalRead, false},
	Fload3: {"fload_3", 0, 0, 1, GroupLocalRead, false},
	Dload0: {"dload_0", 0, 0, 1, GroupLocalRead, false},
	Dload1: {"dload_1", 0, 0, 1, GroupLocalRead, false},
	Dload2: {"dload_2", 0, 0, 1, GroupLocalRead, false},
	Dload3: {"dload_3", 0, 0, 1, GroupLocalRead, false},
	Aload0: {"aload_0", 0, 0, 1, GroupLocalRead, false},
	Aload1: {"aload_1", 0, 0, 1, GroupLocalRead, false},
	Aload2: {"aload_2", 0, 0, 1, GroupLocalRead, false},
	Aload3: {"aload_3", 0, 0, 1, GroupLocalRead, false},

	Iaload: {"iaload", 0, 2, 1, GroupMemRead, false},
	Laload: {"laload", 0, 2, 1, GroupMemRead, false},
	Faload: {"faload", 0, 2, 1, GroupMemRead, false},
	Daload: {"daload", 0, 2, 1, GroupMemRead, false},
	Aaload: {"aaload", 0, 2, 1, GroupMemRead, false},
	Baload: {"baload", 0, 2, 1, GroupMemRead, false},
	Caload: {"caload", 0, 2, 1, GroupMemRead, false},
	Saload: {"saload", 0, 2, 1, GroupMemRead, false},

	Istore: {"istore", 1, 1, 0, GroupLocalWrite, false},
	Lstore: {"lstore", 1, 1, 0, GroupLocalWrite, false},
	Fstore: {"fstore", 1, 1, 0, GroupLocalWrite, false},
	Dstore: {"dstore", 1, 1, 0, GroupLocalWrite, false},
	Astore: {"astore", 1, 1, 0, GroupLocalWrite, false},

	Istore0: {"istore_0", 0, 1, 0, GroupLocalWrite, false},
	Istore1: {"istore_1", 0, 1, 0, GroupLocalWrite, false},
	Istore2: {"istore_2", 0, 1, 0, GroupLocalWrite, false},
	Istore3: {"istore_3", 0, 1, 0, GroupLocalWrite, false},
	Lstore0: {"lstore_0", 0, 1, 0, GroupLocalWrite, false},
	Lstore1: {"lstore_1", 0, 1, 0, GroupLocalWrite, false},
	Lstore2: {"lstore_2", 0, 1, 0, GroupLocalWrite, false},
	Lstore3: {"lstore_3", 0, 1, 0, GroupLocalWrite, false},
	Fstore0: {"fstore_0", 0, 1, 0, GroupLocalWrite, false},
	Fstore1: {"fstore_1", 0, 1, 0, GroupLocalWrite, false},
	Fstore2: {"fstore_2", 0, 1, 0, GroupLocalWrite, false},
	Fstore3: {"fstore_3", 0, 1, 0, GroupLocalWrite, false},
	Dstore0: {"dstore_0", 0, 1, 0, GroupLocalWrite, false},
	Dstore1: {"dstore_1", 0, 1, 0, GroupLocalWrite, false},
	Dstore2: {"dstore_2", 0, 1, 0, GroupLocalWrite, false},
	Dstore3: {"dstore_3", 0, 1, 0, GroupLocalWrite, false},
	Astore0: {"astore_0", 0, 1, 0, GroupLocalWrite, false},
	Astore1: {"astore_1", 0, 1, 0, GroupLocalWrite, false},
	Astore2: {"astore_2", 0, 1, 0, GroupLocalWrite, false},
	Astore3: {"astore_3", 0, 1, 0, GroupLocalWrite, false},

	Iastore: {"iastore", 0, 3, 0, GroupMemWrite, false},
	Lastore: {"lastore", 0, 3, 0, GroupMemWrite, false},
	Fastore: {"fastore", 0, 3, 0, GroupMemWrite, false},
	Dastore: {"dastore", 0, 3, 0, GroupMemWrite, false},
	Aastore: {"aastore", 0, 3, 0, GroupMemWrite, false},
	Bastore: {"bastore", 0, 3, 0, GroupMemWrite, false},
	Castore: {"castore", 0, 3, 0, GroupMemWrite, false},
	Sastore: {"sastore", 0, 3, 0, GroupMemWrite, false},

	Pop:    {"pop", 0, 1, 0, GroupMove, false},
	Pop2:   {"pop2", 0, 2, 0, GroupMove, false},
	Dup:    {"dup", 0, 1, 2, GroupMove, false},
	DupX1:  {"dup_x1", 0, 2, 3, GroupMove, false},
	DupX2:  {"dup_x2", 0, 3, 4, GroupMove, false},
	Dup2:   {"dup2", 0, 2, 4, GroupMove, false},
	Dup2X1: {"dup2_x1", 0, 3, 5, GroupMove, false},
	Dup2X2: {"dup2_x2", 0, 4, 6, GroupMove, false},
	Swap:   {"swap", 0, 2, 2, GroupMove, false},

	Iadd:  {"iadd", 0, 2, 1, GroupIntArith, false},
	Ladd:  {"ladd", 0, 2, 1, GroupIntArith, false},
	Fadd:  {"fadd", 0, 2, 1, GroupFloatArith, false},
	Dadd:  {"dadd", 0, 2, 1, GroupFloatArith, false},
	Isub:  {"isub", 0, 2, 1, GroupIntArith, false},
	Lsub:  {"lsub", 0, 2, 1, GroupIntArith, false},
	Fsub:  {"fsub", 0, 2, 1, GroupFloatArith, false},
	Dsub:  {"dsub", 0, 2, 1, GroupFloatArith, false},
	Imul:  {"imul", 0, 2, 1, GroupIntArith, false},
	Lmul:  {"lmul", 0, 2, 1, GroupIntArith, false},
	Fmul:  {"fmul", 0, 2, 1, GroupFloatArith, false},
	Dmul:  {"dmul", 0, 2, 1, GroupFloatArith, false},
	Idiv:  {"idiv", 0, 2, 1, GroupIntArith, false},
	Ldiv:  {"ldiv", 0, 2, 1, GroupFloatArith, false},
	Fdiv:  {"fdiv", 0, 2, 1, GroupFloatArith, false},
	Ddiv:  {"ddiv", 0, 2, 1, GroupFloatArith, false},
	Irem:  {"irem", 0, 2, 1, GroupIntArith, false},
	Lrem:  {"lrem", 0, 2, 1, GroupIntArith, false},
	Frem:  {"frem", 0, 2, 1, GroupFloatArith, false},
	Drem:  {"drem", 0, 2, 1, GroupFloatArith, false},
	Ineg:  {"ineg", 0, 1, 1, GroupIntArith, false},
	Lneg:  {"lneg", 0, 1, 1, GroupIntArith, false},
	Fneg:  {"fneg", 0, 1, 1, GroupFloatArith, false},
	Dneg:  {"dneg", 0, 1, 1, GroupFloatArith, false},
	Ishl:  {"ishl", 0, 2, 1, GroupIntArith, false},
	Lshl:  {"lshl", 0, 2, 1, GroupIntArith, false},
	Ishr:  {"ishr", 0, 2, 1, GroupIntArith, false},
	Lshr:  {"lshr", 0, 2, 1, GroupIntArith, false},
	Iushr: {"iushr", 0, 2, 1, GroupIntArith, false},
	Lushr: {"lushr", 0, 2, 1, GroupIntArith, false},
	Iand:  {"iand", 0, 2, 1, GroupIntArith, false},
	Land:  {"land", 0, 2, 1, GroupIntArith, false},
	Ior:   {"ior", 0, 2, 1, GroupIntArith, false},
	Lor:   {"lor", 0, 2, 1, GroupIntArith, false},
	Ixor:  {"ixor", 0, 2, 1, GroupIntArith, false},
	Lxor:  {"lxor", 0, 2, 1, GroupIntArith, false},

	Iinc: {"iinc", 2, 0, 0, GroupLocalInc, false},

	I2l: {"i2l", 0, 1, 1, GroupFloatConv, false},
	I2f: {"i2f", 0, 1, 1, GroupFloatConv, false},
	I2d: {"i2d", 0, 1, 1, GroupFloatConv, false},
	L2i: {"l2i", 0, 1, 1, GroupFloatConv, false},
	L2f: {"l2f", 0, 1, 1, GroupFloatConv, false},
	L2d: {"l2d", 0, 1, 1, GroupFloatConv, false},
	F2i: {"f2i", 0, 1, 1, GroupFloatConv, false},
	F2l: {"f2l", 0, 1, 1, GroupFloatConv, false},
	F2d: {"f2d", 0, 1, 1, GroupFloatConv, false},
	D2i: {"d2i", 0, 1, 1, GroupFloatConv, false},
	D2l: {"d2l", 0, 1, 1, GroupFloatConv, false},
	D2f: {"d2f", 0, 1, 1, GroupFloatConv, false},
	I2b: {"i2b", 0, 1, 1, GroupFloatConv, false},
	I2c: {"i2c", 0, 1, 1, GroupFloatConv, false},
	I2s: {"i2s", 0, 1, 1, GroupFloatConv, false},

	Lcmp:  {"lcmp", 0, 2, 1, GroupIntArith, false},
	Fcmpl: {"fcmpl", 0, 2, 1, GroupFloatArith, false},
	Fcmpg: {"fcmpg", 0, 2, 1, GroupFloatArith, false},
	Dcmpl: {"dcmpl", 0, 2, 1, GroupFloatArith, false},
	Dcmpg: {"dcmpg", 0, 2, 1, GroupFloatArith, false},

	Ifeq:         {"ifeq", 2, 1, 0, GroupControl, true},
	Ifne:         {"ifne", 2, 1, 0, GroupControl, true},
	Iflt:         {"iflt", 2, 1, 0, GroupControl, true},
	Ifge:         {"ifge", 2, 1, 0, GroupControl, true},
	Ifgt:         {"ifgt", 2, 1, 0, GroupControl, true},
	Ifle:         {"ifle", 2, 1, 0, GroupControl, true},
	IfIcmpeq:     {"if_icmpeq", 2, 2, 0, GroupControl, true},
	IfIcmpne:     {"if_icmpne", 2, 2, 0, GroupControl, true},
	IfIcmplt:     {"if_icmplt", 2, 2, 0, GroupControl, true},
	IfIcmpge:     {"if_icmpge", 2, 2, 0, GroupControl, true},
	IfIcmpgt:     {"if_icmpgt", 2, 2, 0, GroupControl, true},
	IfIcmple:     {"if_icmple", 2, 2, 0, GroupControl, true},
	IfAcmpeq:     {"if_acmpeq", 2, 2, 0, GroupControl, true},
	IfAcmpne:     {"if_acmpne", 2, 2, 0, GroupControl, true},
	Goto:         {"goto", 2, 0, 0, GroupControl, true},
	Jsr:          {"jsr", 2, 0, 1, GroupSpecial, true},
	Ret:          {"ret", 1, 0, 0, GroupSpecial, false},
	Tableswitch:  {"tableswitch", VarLen, 1, 0, GroupSpecial, false},
	Lookupswitch: {"lookupswitch", VarLen, 1, 0, GroupSpecial, false},

	Ireturn: {"ireturn", 0, 1, 0, GroupReturn, false},
	Lreturn: {"lreturn", 0, 1, 0, GroupReturn, false},
	Freturn: {"freturn", 0, 1, 0, GroupReturn, false},
	Dreturn: {"dreturn", 0, 1, 0, GroupReturn, false},
	Areturn: {"areturn", 0, 1, 0, GroupReturn, false},
	Return:  {"return", 0, 0, 0, GroupReturn, false},

	Getstatic: {"getstatic", 2, 0, 1, GroupMemRead, false},
	Putstatic: {"putstatic", 2, 1, 0, GroupMemWrite, false},
	Getfield:  {"getfield", 2, 1, 1, GroupMemRead, false},
	Putfield:  {"putfield", 2, 2, 0, GroupMemWrite, false},

	GetstaticQuick: {"getstatic_quick", 2, 0, 1, GroupMemRead, false},
	PutstaticQuick: {"putstatic_quick", 2, 1, 0, GroupMemWrite, false},
	GetfieldQuick:  {"getfield_quick", 2, 1, 1, GroupMemRead, false},
	PutfieldQuick:  {"putfield_quick", 2, 2, 0, GroupMemWrite, false},

	Invokevirtual:   {"invokevirtual", 2, VarPop, 1, GroupCall, false},
	Invokespecial:   {"invokespecial", 2, VarPop, 1, GroupCall, false},
	Invokestatic:    {"invokestatic", 2, VarPop, 1, GroupCall, false},
	Invokeinterface: {"invokeinterface", 4, VarPop, 1, GroupCall, false},
	Invokedynamic:   {"invokedynamic", 4, VarPop, 1, GroupCall, false},

	New:            {"new", 2, 0, 1, GroupSpecial, false},
	Newarray:       {"newarray", 1, 1, 1, GroupSpecial, false},
	Anewarray:      {"anewarray", 2, 1, 1, GroupSpecial, false},
	Arraylength:    {"arraylength", 0, 1, 1, GroupMemRead, false},
	Athrow:         {"athrow", 0, 1, 0, GroupReturn, false},
	Checkcast:      {"checkcast", 2, 1, 1, GroupSpecial, false},
	Instanceof:     {"instanceof", 2, 1, 1, GroupSpecial, false},
	Monitorenter:   {"monitorenter", 0, 1, 0, GroupSpecial, false},
	Monitorexit:    {"monitorexit", 0, 1, 0, GroupSpecial, false},
	Wide:           {"wide", VarLen, 0, 0, GroupSpecial, false},
	Multianewarray: {"multianewarray", 3, VarPop, 1, GroupSpecial, false},
	Ifnull:         {"ifnull", 2, 1, 0, GroupControl, true},
	Ifnonnull:      {"ifnonnull", 2, 1, 0, GroupControl, true},
	GotoW:          {"goto_w", 4, 0, 0, GroupControl, true},
	JsrW:           {"jsr_w", 4, 0, 1, GroupSpecial, true},
}

// opTable is a map literal keyed by opcode flattened into arrays indexed
// by the opcode byte, so the per-instruction lookups of verification,
// loading and interpretation index instead of hashing. The literal stays
// the single definition; the table is derived from it at package init.
type opTable[V any] struct {
	val     [256]V
	defined [256]bool
}

func tableOf[V any](m map[Opcode]V) *opTable[V] {
	t := new(opTable[V])
	for op, v := range m {
		t.val[op], t.defined[op] = v, true
	}
	return t
}

var infoTable = tableOf(infos)

// Lookup returns the architected description of op and whether op is a
// defined opcode.
func Lookup(op Opcode) (Info, bool) {
	return infoTable.val[op], infoTable.defined[op]
}

// MustLookup returns the description of op, panicking on undefined opcodes.
// It is intended for workload construction, where an undefined opcode is a
// programming error.
func MustLookup(op Opcode) Info {
	if !infoTable.defined[op] {
		panic(fmt.Sprintf("bytecode: undefined opcode 0x%02x", byte(op)))
	}
	return infoTable.val[op]
}

func (op Opcode) String() string {
	if infoTable.defined[op] {
		return infoTable.val[op].Mnemonic
	}
	return fmt.Sprintf("op#0x%02x", byte(op))
}

// Group returns the instruction group of op (GroupInvalid if undefined).
func (op Opcode) Group() Group {
	return infoTable.val[op].Group
}

// IsDefined reports whether op is an architected (or _Quick) opcode.
func (op Opcode) IsDefined() bool {
	return infoTable.defined[op]
}

// Opcodes returns every defined opcode in ascending numeric order.
func Opcodes() []Opcode {
	ops := make([]Opcode, 0, len(infos))
	for op := range infoTable.defined {
		if infoTable.defined[op] {
			ops = append(ops, Opcode(op))
		}
	}
	return ops
}
