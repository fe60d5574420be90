package bytecode

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SignatureResolver resolves the stack effect of a call site from its
// constant-pool index. The General Purpose Processor performs this
// resolution before a method is loaded into the DataFlow Fabric
// (Section 6.2): "In the case of all instructions except Calls, this is a
// direct translation from the opcode."
type SignatureResolver interface {
	// CallEffect returns the number of arguments (excluding any receiver)
	// and whether the callee returns a value.
	CallEffect(cpIndex int) (argc int, returnsValue bool, err error)
}

// Encode serializes a decoded instruction stream and its switches' arm
// tables to architected class-file byte form: one opcode byte plus
// big-endian operands, with branch targets re-expressed as signed byte
// offsets relative to the branch opcode. An operand outside its opcode's
// architected width, a target outside the body or an invalid arm table is
// an error, never truncated.
func Encode(code []Instruction, switches []Switch) ([]byte, error) {
	if at, err := CheckSwitches(code, switches); err != nil {
		return nil, fmt.Errorf("instruction %d: %w", at, err)
	}
	// First pass: check every instruction and find its byte offset.
	offsets := make([]int, len(code)+1)
	off, sw := 0, 0
	for i, in := range code {
		offsets[i] = off
		if err := checkEncodable(in, len(code)); err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		if in.Op == Lookupswitch {
			// opcode + 3 pad bytes + default(4) + npairs(4) + 8 per pair.
			// The padding is fixed rather than aligning to 4 (see below).
			off += 1 + 3 + 4 + 4 + 8*len(switches[sw].Keys)
			sw++
		} else {
			off += 1 + MustLookup(in.Op).OperandBytes
		}
	}
	offsets[len(code)] = off

	buf := make([]byte, 0, off)
	sw = 0
	for i, in := range code {
		info := MustLookup(in.Op)
		myOff := offsets[i]
		buf = append(buf, byte(in.Op))
		switch {
		case in.Op == Lookupswitch:
			// Fixed 3-byte padding (we do not require 4-byte alignment of
			// the method base; the decoder mirrors this choice).
			s := switches[sw]
			sw++
			buf = append(buf, 0, 0, 0)
			buf = binary.BigEndian.AppendUint32(buf, uint32(offsets[in.Target]-myOff))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Keys)))
			for arm, k := range s.Keys {
				buf = binary.BigEndian.AppendUint32(buf, uint32(int32(k)))
				buf = binary.BigEndian.AppendUint32(buf, uint32(offsets[s.Targets[arm]]-myOff))
			}
		case info.Branch:
			delta := offsets[in.Target] - myOff
			if info.OperandBytes == 4 {
				buf = binary.BigEndian.AppendUint32(buf, uint32(int32(delta)))
			} else if delta < math.MinInt16 || delta > math.MaxInt16 {
				return nil, fmt.Errorf("instruction %d (%s): branch offset %d exceeds 16 bits", i, in.Op, delta)
			} else {
				buf = binary.BigEndian.AppendUint16(buf, uint16(delta))
			}
		case info.OperandBytes == 1:
			buf = append(buf, byte(in.A))
		case in.Op == Iinc:
			buf = append(buf, byte(in.A), byte(in.B))
		case info.OperandBytes == 2:
			buf = binary.BigEndian.AppendUint16(buf, uint16(in.A))
		case info.OperandBytes == 3: // multianewarray: 2-byte cp index + dimensions byte
			buf = append(binary.BigEndian.AppendUint16(buf, uint16(in.A)), byte(in.B))
		case info.OperandBytes == 4: // invokeinterface's count byte; invokedynamic's B is 0
			buf = append(binary.BigEndian.AppendUint16(buf, uint16(in.A)), byte(in.B), 0)
		}
	}
	return buf, nil
}

// checkEncodable reports whether in, an instruction of a body of n, has
// an architected byte form: a defined fixed-length opcode or lookupswitch,
// operands within their widths, and a target inside the body exactly when
// the opcode has one.
func checkEncodable(in Instruction, n int) error {
	info, ok := Lookup(in.Op)
	switch {
	case !ok:
		return fmt.Errorf("undefined opcode 0x%02x", byte(in.Op))
	case info.OperandBytes == VarLen && in.Op != Lookupswitch:
		return fmt.Errorf("variable-length opcode %s not encodable", in.Op)
	case info.Branch || in.Op == Lookupswitch:
		if in.Target < 0 || int(in.Target) > n {
			return fmt.Errorf("%s targets out of range %d", in.Op, in.Target)
		}
	case in.Target != NoTarget:
		return fmt.Errorf("%s carries target %d", in.Op, in.Target)
	}
	return checkOperands(in.Op, int64(in.A), int64(in.B))
}

// Decode parses architected byte form back into linear-address instructions
// and the arm tables of their switches. resolver may be nil, in which case
// call sites keep Pop=VarPop and must be resolved before fabric loading.
func Decode(code []byte, resolver SignatureResolver) ([]Instruction, []Switch, error) {
	// idxAt[off] is one more than the index of the instruction starting at
	// byte offset off; 0 inside an instruction.
	idxAt := make([]int, len(code))
	var instrs []Instruction
	var switches []Switch
	// A patch waits on a branch's byte offset. Arm -1 is the Target of
	// instruction at; arm i >= 0 is Targets[i] of arm table at.
	type patch struct {
		at, arm int
		target  int
	}
	var patches []patch

	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		info, ok := Lookup(op)
		if !ok {
			return nil, nil, fmt.Errorf("offset %d: undefined opcode 0x%02x", pc, byte(op))
		}
		idxAt[pc] = len(instrs) + 1
		in := Instruction{Op: op, Target: NoTarget, Pop: int8(info.Pop), Push: int8(info.Push)}
		myOff := pc
		pc++

		s32 := func(at int) int { return int(int32(binary.BigEndian.Uint32(code[at:]))) }

		switch {
		case op == Lookupswitch:
			pc += 3 // fixed padding, mirroring Encode
			if pc+8 > len(code) {
				return nil, nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			patches = append(patches, patch{len(instrs), -1, myOff + s32(pc)})
			n := s32(pc + 4)
			pc += 8
			if n < 0 || n > 1<<16 {
				return nil, nil, fmt.Errorf("offset %d: implausible npairs %d", myOff, n)
			}
			if pc+8*n > len(code) {
				return nil, nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			s := Switch{At: len(instrs), Keys: make([]int64, n), Targets: make([]int, n)}
			for arm := range n {
				s.Keys[arm] = int64(s32(pc))
				if arm > 0 && s.Keys[arm] <= s.Keys[arm-1] {
					return nil, nil, fmt.Errorf("offset %d: lookupswitch keys out of order (%d after %d)", myOff, s.Keys[arm], s.Keys[arm-1])
				}
				patches = append(patches, patch{len(switches), arm, myOff + s32(pc+4)})
				pc += 8
			}
			switches = append(switches, s)
		case op == Tableswitch || op == Wide:
			return nil, nil, fmt.Errorf("offset %d: %s decoding not supported (assembler never emits it)", myOff, op)
		case pc+info.OperandBytes > len(code):
			return nil, nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
		case info.Branch && info.OperandBytes == 2:
			patches = append(patches, patch{len(instrs), -1, myOff + int(int16(binary.BigEndian.Uint16(code[pc:])))})
		case info.Branch:
			patches = append(patches, patch{len(instrs), -1, myOff + s32(pc)})
		case op == Bipush:
			in.A = int32(int8(code[pc]))
		case info.OperandBytes == 1:
			in.A = int32(code[pc])
		case op == Iinc:
			in.A, in.B = int32(code[pc]), int32(int8(code[pc+1]))
		case op == Sipush:
			in.A = int32(int16(binary.BigEndian.Uint16(code[pc:])))
		case info.OperandBytes == 2:
			in.A = int32(binary.BigEndian.Uint16(code[pc:]))
		case info.OperandBytes == 3: // multianewarray
			in.A, in.B = int32(binary.BigEndian.Uint16(code[pc:])), int32(code[pc+2])
		case info.OperandBytes == 4:
			in.A = int32(binary.BigEndian.Uint16(code[pc:]))
			if op == Invokeinterface {
				in.B = int32(code[pc+2])
			} else if code[pc+2] != 0 {
				return nil, nil, fmt.Errorf("offset %d: %s reserved byte is %d, want 0", myOff, op, code[pc+2])
			}
			if code[pc+3] != 0 {
				return nil, nil, fmt.Errorf("offset %d: %s reserved byte is %d, want 0", myOff, op, code[pc+3])
			}
		}
		if op != Lookupswitch {
			pc += info.OperandBytes
		}

		if info.Pop == VarPop && info.Group == GroupCall && resolver != nil {
			argc, rv, err := resolver.CallEffect(int(in.A))
			if err != nil {
				return nil, nil, fmt.Errorf("offset %d: resolving %s: %w", myOff, op, err)
			}
			resolved, err := makeCall(op, int64(in.A), argc, rv)
			if err != nil {
				return nil, nil, fmt.Errorf("offset %d: %w", myOff, err)
			}
			resolved.B = in.B
			in = resolved
		}
		instrs = append(instrs, in)
	}

	for _, p := range patches {
		if p.target < 0 || p.target >= len(code) || idxAt[p.target] == 0 {
			return nil, nil, fmt.Errorf("branch into middle of instruction at byte offset %d", p.target)
		}
		ti := idxAt[p.target] - 1
		if p.arm < 0 {
			instrs[p.at].Target = int32(ti)
		} else {
			switches[p.at].Targets[p.arm] = ti
		}
	}
	return instrs, switches, nil
}

// Disassemble renders the stream in JAVAP-like numbered form (Figure 28).
func Disassemble(instrs []Instruction) string {
	out := ""
	for i, in := range instrs {
		out += fmt.Sprintf("%4d: %s\n", i, in.String())
	}
	return out
}
