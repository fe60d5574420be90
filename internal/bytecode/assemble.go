package bytecode

import (
	"fmt"
	"slices"
	"strconv"
)

// Assembler builds a method body instruction-by-instruction with symbolic
// branch labels. It selects the architected short forms (iload_0 …) where
// they exist, mirroring what JAVAC emits, so that static-mix statistics match
// real compiler output.
//
// A label is either a name (Label, Branch, Switch) or a Label value from
// NewLabel (Bind, BranchTo); names are resolved to the same values, so the
// two can be mixed in one body.
//
// The zero value is not usable; create with NewAssembler.
type Assembler struct {
	instrs   []Instruction
	switches []Switch
	// at[l] is the instruction label l is bound to, -1 until Bind; name[l]
	// is its name, "" for a NewLabel label. names maps a name to its label.
	at     []int32
	name   []string
	names  map[string]Label
	fixups []fixup
	errs   []error
	// bare is one more than the index of the first branch emitted without
	// a label (Op or OpA), 0 when there is none; bareSwitch records a
	// switch opcode emitted without an arm table. Finish refuses both.
	bare       int
	bareSwitch bool
	// bodies is the chunk Finish carves the returned bodies from.
	bodies []Instruction
}

// bodyChunk is the largest chunk, in instructions, Finish allocates
// bodies from: 32 KiB, the largest size the runtime allocates as a small
// object.
const bodyChunk = 2048

// Label is a branch target of one body, made by NewLabel and bound to an
// instruction by Bind.
type Label int32

// fixup records that a branch target waits on label. Arm -1 is the Target
// of instruction at; arm i >= 0 is Targets[i] of arm table at.
type fixup struct {
	at, arm int32
	label   Label
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{}
}

// Reset empties the assembler for the next method, keeping its buffers.
// Slices returned by earlier Finish and Switches calls are unaffected.
func (a *Assembler) Reset() {
	a.instrs = a.instrs[:0]
	a.switches = nil
	a.at = a.at[:0]
	a.name = a.name[:0]
	clear(a.names)
	a.fixups = a.fixups[:0]
	a.errs = nil
	a.bare, a.bareSwitch = 0, false
}

// Len returns the number of instructions emitted so far (the linear address
// of the next instruction).
func (a *Assembler) Len() int { return len(a.instrs) }

// NewLabel returns a fresh label of the body being built, bound to nothing.
func (a *Assembler) NewLabel() Label {
	a.at = append(a.at, -1)
	a.name = append(a.name, "")
	return Label(len(a.at) - 1)
}

// named returns the label called name, making it on first use.
func (a *Assembler) named(name string) Label {
	if l, ok := a.names[name]; ok {
		return l
	}
	if a.names == nil {
		a.names = make(map[string]Label)
	}
	l := a.NewLabel()
	a.name[l] = name
	a.names[name] = l
	return l
}

// labelString names l in an error.
func (a *Assembler) labelString(l Label) string {
	if a.name[l] != "" {
		return strconv.Quote(a.name[l])
	}
	return "#" + strconv.Itoa(int(l))
}

// Label binds name to the next emitted instruction.
func (a *Assembler) Label(name string) *Assembler { return a.Bind(a.named(name)) }

// Bind binds l to the next emitted instruction.
func (a *Assembler) Bind(l Label) *Assembler {
	if a.at[l] >= 0 {
		a.errs = append(a.errs, fmt.Errorf("duplicate label %s", a.labelString(l)))
		return a
	}
	a.at[l] = int32(len(a.instrs))
	return a
}

// Op emits an instruction with no operand.
func (a *Assembler) Op(op Opcode) *Assembler {
	p := &protos[op]
	if !p.plain {
		a.unplain(op)
	}
	a.instrs = append(a.instrs, p.in)
	return a
}

// OpA emits an instruction with a primary operand.
func (a *Assembler) OpA(op Opcode, operand int64) *Assembler {
	return a.emit(op, operand, 0)
}

// emit appends op with operands x and y, recording an error when either
// falls outside op's architected width.
func (a *Assembler) emit(op Opcode, x, y int64) *Assembler {
	p := &protos[op]
	if x < p.aMin || x > p.aMax || y < p.bMin || y > p.bMax {
		a.errs = append(a.errs, fmt.Errorf("instruction %d: %w", len(a.instrs), checkOperands(op, x, y)))
	}
	if !p.plain {
		a.unplain(op)
	}
	in := p.in
	in.A, in.B = int32(x), int32(y)
	a.instrs = append(a.instrs, in)
	return a
}

// unplain is Op's and emit's path for an opcode that is not plain: it
// panics on an undefined or VarPop opcode, as Make does, and notes a
// branch or switch emitted at Len without a label or an arm table, which
// Finish refuses.
func (a *Assembler) unplain(op Opcode) {
	p := protoOf(op)
	if p.varPop {
		Make(op) // panics with the reason
	}
	if p.branch && a.bare == 0 {
		a.bare = len(a.instrs) + 1
	}
	if p.switchOp {
		a.bareSwitch = true
	}
}

// Branch emits a branch instruction targeting label.
func (a *Assembler) Branch(op Opcode, label string) *Assembler {
	return a.BranchTo(op, a.named(label))
}

// BranchTo emits a branch instruction targeting l.
func (a *Assembler) BranchTo(op Opcode, l Label) *Assembler {
	p := protoOf(op)
	if !p.branch {
		a.errs = append(a.errs, fmt.Errorf("%s is not a branch opcode", op))
	}
	a.fixups = append(a.fixups, fixup{int32(len(a.instrs)), -1, l})
	a.instrs = append(a.instrs, Make(op))
	return a
}

// Iinc emits a local-increment of register local by delta.
func (a *Assembler) Iinc(local, delta int) *Assembler {
	return a.emit(Iinc, int64(local), int64(delta))
}

// shortForms holds the _0.._3 variants of each wide (operand-carrying)
// load/store opcode, indexed by the wide opcode; a zero row (nop is never
// a short form) means the opcode has none.
var shortForms = [256][4]Opcode{
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
	if forms := &shortForms[base]; n < 4 && forms[0] != Nop {
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
	in, err := makeCall(op, int64(cpIndex), argc, returnsValue)
	if err != nil {
		a.errs = append(a.errs, fmt.Errorf("instruction %d: %w", len(a.instrs), err))
	}
	a.instrs = append(a.instrs, in)
	return a
}

// Switch emits a lookupswitch with the given key->label arms and a default
// label. Keys are sorted as the architecture requires; each must fit int32.
func (a *Assembler) Switch(arms map[int64]string, def string) *Assembler {
	keys := make([]int64, 0, len(arms))
	for k := range arms {
		if k != int64(int32(k)) {
			a.errs = append(a.errs, fmt.Errorf("instruction %d: switch key %d outside int32", len(a.instrs), k))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sw := len(a.switches)
	a.switches = append(a.switches, Switch{At: len(a.instrs), Keys: keys, Targets: make([]int, len(keys))})
	for i, k := range keys {
		a.fixups = append(a.fixups, fixup{int32(sw), int32(i), a.named(arms[k])})
	}
	a.fixups = append(a.fixups, fixup{int32(len(a.instrs)), -1, a.named(def)})
	a.instrs = append(a.instrs, Make(Lookupswitch))
	return a
}

// Finish resolves all labels and returns the instruction stream. The arm
// tables of its switches, if any, are then read with Switches.
func (a *Assembler) Finish() ([]Instruction, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	for _, f := range a.fixups {
		target := a.at[f.label]
		if target < 0 {
			return nil, fmt.Errorf("undefined label %s", a.labelString(f.label))
		}
		if f.arm < 0 {
			a.instrs[f.at].Target = target
		} else {
			a.switches[f.at].Targets[f.arm] = int(target)
		}
	}
	if a.bare > 0 {
		i := a.bare - 1
		return nil, fmt.Errorf("instruction %d (%s) has unresolved target", i, a.instrs[i].Op)
	}
	if len(a.switches) > 0 || a.bareSwitch {
		if at, err := CheckSwitches(a.instrs, a.switches); err != nil {
			return nil, fmt.Errorf("instruction %d: %w", at, err)
		}
	}
	// An exact-length copy: the caller keeps it for the life of the method,
	// and the assembler's own buffer grew by doubling and is reused after
	// Reset. Copies are carved from a chunk the assembler fills across
	// methods, one allocation per chunk rather than per body; a chunk
	// starts at the first body's size and doubles up to bodyChunk
	// instructions, so an assembler that builds one method wastes nothing.
	n := len(a.instrs)
	if cap(a.bodies)-len(a.bodies) < n {
		a.bodies = make([]Instruction, 0, max(n, min(2*cap(a.bodies), bodyChunk)))
	}
	code := a.bodies[len(a.bodies) : len(a.bodies)+n : len(a.bodies)+n]
	copy(code, a.instrs)
	a.bodies = a.bodies[:len(a.bodies)+n]
	return code, nil
}

// Switches returns the arm tables of the body the last Finish returned, in
// instruction order; nil when it has no switch. A method keeps them beside
// its code (classfile.Method.Switches).
func (a *Assembler) Switches() []Switch { return a.switches }
