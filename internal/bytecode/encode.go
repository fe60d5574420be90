package bytecode

import (
	"encoding/binary"
	"fmt"
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

// Encode serializes a decoded instruction stream to architected class-file
// byte form: one opcode byte plus big-endian operands, with branch targets
// re-expressed as signed 16-bit byte offsets relative to the branch opcode.
func Encode(instrs []Instruction) ([]byte, error) {
	// First pass: byte offset of each instruction.
	offsets := make([]int, len(instrs)+1)
	off := 0
	for i, in := range instrs {
		offsets[i] = off
		n, err := encodedLen(in)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		off += n
	}
	offsets[len(instrs)] = off

	buf := make([]byte, 0, off)
	for i, in := range instrs {
		b, err := encodeOne(in, offsets, i)
		if err != nil {
			return nil, fmt.Errorf("instruction %d (%s): %w", i, in.Op, err)
		}
		buf = append(buf, b...)
	}
	return buf, nil
}

func encodedLen(in Instruction) (int, error) {
	info, ok := Lookup(in.Op)
	if !ok {
		return 0, fmt.Errorf("undefined opcode 0x%02x", byte(in.Op))
	}
	if info.OperandBytes != VarLen {
		return 1 + info.OperandBytes, nil
	}
	switch in.Op {
	case Lookupswitch:
		// opcode + pad-to-4 + default(4) + npairs(4) + 8 per pair.
		// Padding depends on position; account for worst case in the
		// first pass by computing exactly in encodeOne. To keep offsets
		// consistent we disallow padding by aligning: we instead always
		// use 3 pad bytes' worth of space. See encodeOne.
		return 1 + 3 + 4 + 4 + 8*len(in.SwitchKeys()), nil
	default:
		return 0, fmt.Errorf("variable-length opcode %s not encodable", in.Op)
	}
}

func encodeOne(in Instruction, offsets []int, idx int) ([]byte, error) {
	info := MustLookup(in.Op)
	myOff := offsets[idx]
	var buf []byte
	buf = append(buf, byte(in.Op))

	if in.Op == Lookupswitch {
		// Fixed 3-byte padding (we do not require 4-byte alignment of the
		// method base; the decoder mirrors this choice).
		buf = append(buf, 0, 0, 0)
		var w [4]byte
		binary.BigEndian.PutUint32(w[:], uint32(offsets[in.Target]-myOff))
		buf = append(buf, w[:]...)
		keys, targets := in.SwitchKeys(), in.SwitchTargets()
		binary.BigEndian.PutUint32(w[:], uint32(len(keys)))
		buf = append(buf, w[:]...)
		for i, k := range keys {
			binary.BigEndian.PutUint32(w[:], uint32(int32(k)))
			buf = append(buf, w[:]...)
			binary.BigEndian.PutUint32(w[:], uint32(offsets[targets[i]]-myOff))
			buf = append(buf, w[:]...)
		}
		return buf, nil
	}

	if info.Branch {
		delta := offsets[in.Target] - myOff
		switch info.OperandBytes {
		case 2:
			if delta < -32768 || delta > 32767 {
				return nil, fmt.Errorf("branch offset %d exceeds 16 bits", delta)
			}
			buf = append(buf, byte(delta>>8), byte(delta))
		case 4:
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], uint32(int32(delta)))
			buf = append(buf, w[:]...)
		}
		return buf, nil
	}

	switch info.OperandBytes {
	case 0:
	case 1:
		buf = append(buf, byte(in.A))
	case 2:
		if in.Op == Iinc {
			buf = append(buf, byte(in.A), byte(in.B))
		} else {
			buf = append(buf, byte(in.A>>8), byte(in.A))
		}
	case 3: // multianewarray: 2-byte cp index + dimensions byte
		buf = append(buf, byte(in.A>>8), byte(in.A), byte(in.B))
	case 4:
		if in.Op == Invokeinterface {
			buf = append(buf, byte(in.A>>8), byte(in.A), byte(in.B), 0)
		} else { // invokedynamic
			buf = append(buf, byte(in.A>>8), byte(in.A), 0, 0)
		}
	default:
		return nil, fmt.Errorf("unhandled operand width %d", info.OperandBytes)
	}
	return buf, nil
}

// Decode parses architected byte form back into linear-address instructions.
// resolver may be nil, in which case call sites keep Pop=VarPop and must be
// resolved before fabric loading.
func Decode(code []byte, resolver SignatureResolver) ([]Instruction, error) {
	// First pass: byte offset -> instruction index.
	idxAt := make(map[int]int)
	var instrs []Instruction
	type patch struct {
		instr  int
		arm    int // -1: Target; >=0: Switch.Targets[arm]
		target int // byte offset
	}
	var patches []patch

	for pc := 0; pc < len(code); {
		op := Opcode(code[pc])
		info, ok := Lookup(op)
		if !ok {
			return nil, fmt.Errorf("offset %d: undefined opcode 0x%02x", pc, byte(op))
		}
		idxAt[pc] = len(instrs)
		in := Instruction{Op: op, Target: NoTarget, Pop: info.Pop, Push: info.Push}
		myOff := pc
		pc++

		readU16 := func() (int, error) {
			if pc+2 > len(code) {
				return 0, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			v := int(binary.BigEndian.Uint16(code[pc:]))
			pc += 2
			return v, nil
		}
		readS32 := func() (int, error) {
			if pc+4 > len(code) {
				return 0, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			v := int(int32(binary.BigEndian.Uint32(code[pc:])))
			pc += 4
			return v, nil
		}

		switch {
		case op == Lookupswitch:
			pc += 3 // fixed padding, mirroring Encode
			def, err := readS32()
			if err != nil {
				return nil, err
			}
			patches = append(patches, patch{len(instrs), -1, myOff + def})
			n, err := readS32()
			if err != nil {
				return nil, err
			}
			if n < 0 || n > 1<<16 {
				return nil, fmt.Errorf("offset %d: implausible npairs %d", myOff, n)
			}
			in.Switch = &Switch{Keys: make([]int64, n), Targets: make([]int, n)}
			for i := 0; i < n; i++ {
				k, err := readS32()
				if err != nil {
					return nil, err
				}
				in.Switch.Keys[i] = int64(k)
				t, err := readS32()
				if err != nil {
					return nil, err
				}
				patches = append(patches, patch{len(instrs), i, myOff + t})
			}
		case op == Tableswitch || op == Wide:
			return nil, fmt.Errorf("offset %d: %s decoding not supported (assembler never emits it)", myOff, op)
		case info.Branch && info.OperandBytes == 2:
			v, err := readU16()
			if err != nil {
				return nil, err
			}
			patches = append(patches, patch{len(instrs), -1, myOff + int(int16(v))})
		case info.Branch && info.OperandBytes == 4:
			v, err := readS32()
			if err != nil {
				return nil, err
			}
			patches = append(patches, patch{len(instrs), -1, myOff + v})
		case info.OperandBytes == 1:
			if pc >= len(code) {
				return nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			if op == Bipush {
				in.A = int64(int8(code[pc]))
			} else {
				in.A = int64(code[pc])
			}
			pc++
		case info.OperandBytes == 2:
			if op == Iinc {
				if pc+2 > len(code) {
					return nil, fmt.Errorf("offset %d: truncated iinc", myOff)
				}
				in.A = int64(code[pc])
				in.B = int64(int8(code[pc+1]))
				pc += 2
			} else {
				v, err := readU16()
				if err != nil {
					return nil, err
				}
				if op == Sipush {
					in.A = int64(int16(v))
				} else {
					in.A = int64(v)
				}
			}
		case info.OperandBytes == 3:
			if pc+3 > len(code) {
				return nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			in.A = int64(binary.BigEndian.Uint16(code[pc:]))
			in.B = int64(code[pc+2])
			pc += 3
		case info.OperandBytes == 4:
			v, err := readU16()
			if err != nil {
				return nil, err
			}
			in.A = int64(v)
			if pc+2 > len(code) {
				return nil, fmt.Errorf("offset %d: truncated %s", myOff, op)
			}
			in.B = int64(code[pc])
			pc += 2
		}

		if info.Pop == VarPop && info.Group == GroupCall && resolver != nil {
			argc, rv, err := resolver.CallEffect(int(in.A))
			if err != nil {
				return nil, fmt.Errorf("offset %d: resolving %s: %w", myOff, op, err)
			}
			resolved := MakeCall(op, in.A, argc, rv)
			resolved.B = in.B
			in = resolved
		}
		instrs = append(instrs, in)
	}

	for _, p := range patches {
		ti, ok := idxAt[p.target]
		if !ok {
			return nil, fmt.Errorf("branch into middle of instruction at byte offset %d", p.target)
		}
		if p.arm < 0 {
			instrs[p.instr].Target = ti
		} else {
			instrs[p.instr].Switch.Targets[p.arm] = ti
		}
	}
	return instrs, nil
}

// Disassemble renders the stream in JAVAP-like numbered form (Figure 28).
func Disassemble(instrs []Instruction) string {
	out := ""
	for i, in := range instrs {
		out += fmt.Sprintf("%4d: %s\n", i, in.String())
	}
	return out
}
