package bytecode

import (
	"fmt"
	"sort"
)

// Assembler builds a method body instruction-by-instruction with symbolic
// branch labels. It selects the architected short forms (iload_0 …) where
// they exist, mirroring what JAVAC emits, so that static-mix statistics match
// real compiler output.
//
// The zero value is not usable; create with NewAssembler.
type Assembler struct {
	instrs []Instruction
	labels map[string]int
	fixups []fixup
	errs   []error
}

// fixup records that a branch target of instruction instr waits on label.
// Arm -1 is the instruction's Target; arm i >= 0 is its Switch.Targets[i].
type fixup struct {
	instr, arm int
	label      string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int)}
}

// Reset empties the assembler for the next method, keeping its buffers.
// Slices returned by earlier Finish calls are unaffected.
func (a *Assembler) Reset() {
	a.instrs = a.instrs[:0]
	clear(a.labels)
	a.fixups = a.fixups[:0]
	a.errs = nil
}

// Len returns the number of instructions emitted so far (the linear address
// of the next instruction).
func (a *Assembler) Len() int { return len(a.instrs) }

// Label binds name to the next emitted instruction.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("duplicate label %q", name))
		return a
	}
	a.labels[name] = len(a.instrs)
	return a
}

// Op emits an instruction with no operand.
func (a *Assembler) Op(op Opcode) *Assembler {
	a.instrs = append(a.instrs, Make(op))
	return a
}

// OpA emits an instruction with a primary operand.
func (a *Assembler) OpA(op Opcode, operand int64) *Assembler {
	a.instrs = append(a.instrs, MakeA(op, operand))
	return a
}

// Branch emits a branch instruction targeting label.
func (a *Assembler) Branch(op Opcode, label string) *Assembler {
	info := MustLookup(op)
	if !info.Branch {
		a.errs = append(a.errs, fmt.Errorf("%s is not a branch opcode", op))
	}
	a.fixups = append(a.fixups, fixup{len(a.instrs), -1, label})
	a.instrs = append(a.instrs, Make(op))
	return a
}

// Iinc emits a local-increment of register local by delta.
func (a *Assembler) Iinc(local, delta int) *Assembler {
	in := Make(Iinc)
	in.A, in.B = int64(local), int64(delta)
	a.instrs = append(a.instrs, in)
	return a
}

// shortForm returns the _0.._3 variant of base for register n, if any.
// base must be the wide (operand-carrying) load/store opcode; the four short
// forms are architected to follow contiguously per type.
var shortForms = map[Opcode][4]Opcode{
	Iload:  {Iload0, Iload1, Iload2, Iload3},
	Lload:  {Lload0, Lload1, Lload2, Lload3},
	Fload:  {Fload0, Fload1, Fload2, Fload3},
	Dload:  {Dload0, Dload1, Dload2, Dload3},
	Aload:  {Aload0, Aload1, Aload2, Aload3},
	Istore: {Istore0, Istore1, Istore2, Istore3},
	Lstore: {Lstore0, Lstore1, Lstore2, Lstore3},
	Fstore: {Fstore0, Fstore1, Fstore2, Fstore3},
	Dstore: {Dstore0, Dstore1, Dstore2, Dstore3},
	Astore: {Astore0, Astore1, Astore2, Astore3},
}

// Local emits a local read/write using the short form when the register
// number permits (as JAVAC does). base is the wide opcode (Iload, Dstore…).
func (a *Assembler) Local(base Opcode, n int) *Assembler {
	if n < 0 {
		a.errs = append(a.errs, fmt.Errorf("negative register %d", n))
		n = 0
	}
	if forms, ok := shortForms[base]; ok && n < 4 {
		return a.Op(forms[n])
	}
	return a.OpA(base, int64(n))
}

// ILoad … AStore are convenience wrappers over Local.
func (a *Assembler) ILoad(n int) *Assembler  { return a.Local(Iload, n) }
func (a *Assembler) LLoad(n int) *Assembler  { return a.Local(Lload, n) }
func (a *Assembler) DLoad(n int) *Assembler  { return a.Local(Dload, n) }
func (a *Assembler) ALoad(n int) *Assembler  { return a.Local(Aload, n) }
func (a *Assembler) IStore(n int) *Assembler { return a.Local(Istore, n) }
func (a *Assembler) LStore(n int) *Assembler { return a.Local(Lstore, n) }
func (a *Assembler) DStore(n int) *Assembler { return a.Local(Dstore, n) }
func (a *Assembler) AStore(n int) *Assembler { return a.Local(Astore, n) }

// PushInt emits the smallest constant-push form for v: iconst_*, bipush,
// or sipush. Values beyond 16 bits would need an ldc; the caller supplies a
// constant-pool index for those via Ldc.
func (a *Assembler) PushInt(v int64) *Assembler {
	switch {
	case v >= -1 && v <= 5:
		return a.Op(Iconst0 + Opcode(v)) // iconst_m1 is contiguous below iconst_0
	case v >= -128 && v <= 127:
		return a.OpA(Bipush, v)
	case v >= -32768 && v <= 32767:
		return a.OpA(Sipush, v)
	default:
		a.errs = append(a.errs, fmt.Errorf("PushInt %d out of sipush range; use Ldc", v))
		return a
	}
}

// Ldc emits a constant-pool load. Wide indices select ldc_w automatically;
// isWide selects ldc2_w for long/double constants.
func (a *Assembler) Ldc(cpIndex int, isWide bool) *Assembler {
	switch {
	case isWide:
		return a.OpA(Ldc2W, int64(cpIndex))
	case cpIndex <= 0xff:
		return a.OpA(Ldc, int64(cpIndex))
	default:
		return a.OpA(LdcW, int64(cpIndex))
	}
}

// Field emits a field access in its architected base form. Interpreters
// rewrite the base form to the _Quick variant on first execution, and the
// GPP rewrites statically before fabric loading (Section 5.2, Table 5);
// see QuickForm.
func (a *Assembler) Field(op Opcode, cpIndex int) *Assembler {
	if _, ok := QuickForm(op); !ok {
		a.errs = append(a.errs, fmt.Errorf("Field on non-field opcode %s", op))
		return a
	}
	return a.OpA(op, int64(cpIndex))
}

// QuickForm returns the resolved _Quick variant of a base field opcode.
// _Quick opcodes map to themselves.
func QuickForm(op Opcode) (Opcode, bool) {
	switch op {
	case Getstatic:
		return GetstaticQuick, true
	case Putstatic:
		return PutstaticQuick, true
	case Getfield:
		return GetfieldQuick, true
	case Putfield:
		return PutfieldQuick, true
	case GetstaticQuick, PutstaticQuick, GetfieldQuick, PutfieldQuick:
		return op, true
	}
	return op, false
}

// IsQuick reports whether op is a resolved _Quick storage opcode.
func IsQuick(op Opcode) bool {
	switch op {
	case GetstaticQuick, PutstaticQuick, GetfieldQuick, PutfieldQuick:
		return true
	}
	return false
}

// Call emits an invoke instruction with its signature-resolved pop count.
func (a *Assembler) Call(op Opcode, cpIndex int, argc int, returnsValue bool) *Assembler {
	a.instrs = append(a.instrs, MakeCall(op, int64(cpIndex), argc, returnsValue))
	return a
}

// Switch emits a lookupswitch with the given key->label arms and a default
// label. Keys are sorted as the architecture requires.
func (a *Assembler) Switch(arms map[int64]string, def string) *Assembler {
	in := Make(Lookupswitch)
	keys := make([]int64, 0, len(arms))
	for k := range arms {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	in.Switch = &Switch{Keys: keys, Targets: make([]int, len(keys))}
	idx := len(a.instrs)
	for i, k := range keys {
		a.fixups = append(a.fixups, fixup{idx, i, arms[k]})
	}
	a.fixups = append(a.fixups, fixup{idx, -1, def})
	a.instrs = append(a.instrs, in)
	return a
}

// Finish resolves all labels and returns the instruction stream.
func (a *Assembler) Finish() ([]Instruction, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", f.label)
		}
		if f.arm < 0 {
			a.instrs[f.instr].Target = target
		} else {
			a.instrs[f.instr].Switch.Targets[f.arm] = target
		}
	}
	inRange := func(t int) bool { return t >= 0 && t <= len(a.instrs) }
	for i, in := range a.instrs {
		if in.Info().Branch && in.Target == NoTarget {
			return nil, fmt.Errorf("instruction %d (%s) has unresolved target", i, in.Op)
		}
		if in.Target != NoTarget && !inRange(in.Target) {
			return nil, fmt.Errorf("instruction %d (%s) targets out of range %d", i, in.Op, in.Target)
		}
		for arm, t := range in.SwitchTargets() {
			if !inRange(t) {
				return nil, fmt.Errorf("instruction %d (%s) arm %d targets out of range %d", i, in.Op, arm, t)
			}
		}
	}
	// An exact-length copy: the caller keeps it for the life of the method,
	// and the assembler's own buffer grew by doubling and is reused after
	// Reset.
	code := make([]Instruction, len(a.instrs))
	copy(code, a.instrs)
	return code, nil
}
