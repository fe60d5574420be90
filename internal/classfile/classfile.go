// Package classfile models the subset of the Java ClassFile structure that
// the JavaFlow machine consumes: methods (bytecode streams with known
// max-stack/max-locals), the Constant Pool, and field/method references
// resolved to direct offsets by the General Purpose Processor's
// preparation/verification/resolution steps (Section 6.2).
//
// The load-bearing invariant is signature stability: Method.Signature is
// the fleet-wide addressing key — dispatch routes by it, the store keys
// records by it (plus the body hash), and replication dedups by it — so
// it must be a pure function of the method's identity, identical on
// every node serving the same corpus.
package classfile

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync/atomic"

	"javaflow/internal/bytecode"
)

// ConstKind discriminates constant-pool entries.
type ConstKind uint8

const (
	ConstInvalid ConstKind = iota
	ConstInt
	ConstLong
	ConstFloat
	ConstDouble
	ConstString
	ConstFieldRef
	ConstMethodRef
	ConstClassRef
)

func (k ConstKind) String() string {
	switch k {
	case ConstInt:
		return "int"
	case ConstLong:
		return "long"
	case ConstFloat:
		return "float"
	case ConstDouble:
		return "double"
	case ConstString:
		return "string"
	case ConstFieldRef:
		return "fieldref"
	case ConstMethodRef:
		return "methodref"
	case ConstClassRef:
		return "classref"
	default:
		return "invalid"
	}
}

// FieldRef is a field reference after the Resolution step: a direct slot
// offset into either the class static area (Method Area) or the instance
// data on the Heap. The _Quick instruction forms carry the pool index of one
// of these (Figure 10).
type FieldRef struct {
	Class  string
	Name   string
	Static bool
	Slot   int
}

// MethodRef is a call-site reference with its signature information, which
// the GPP uses to resolve the pop count of invoke instructions before
// loading a method into the fabric.
type MethodRef struct {
	Class        string
	Name         string
	Argc         int // declared arguments, excluding any receiver
	Instance     bool
	ReturnsValue bool
}

// Signature renders the canonical "Class.Name/argc" form used in reports.
// Plain concatenation: every engine run, span and store key builds one.
func (r MethodRef) Signature() string {
	return r.Class + "." + r.Name + "/" + strconv.Itoa(r.Argc)
}

// Constant is one constant-pool entry.
type Constant struct {
	Kind   ConstKind
	I      int64
	F      float64
	S      string
	Field  FieldRef
	Method MethodRef
}

// ConstantPool is the per-class constant pool. Index 0 is reserved (as in
// the architected class file), so the first added entry has index 1.
type ConstantPool struct {
	entries []Constant
}

// NewConstantPool returns a pool with the reserved zero entry.
func NewConstantPool() *ConstantPool {
	return &ConstantPool{entries: make([]Constant, 1)}
}

func (p *ConstantPool) add(c Constant) int {
	p.entries = append(p.entries, c)
	return len(p.entries) - 1
}

// AddInt adds an integer constant and returns its index.
func (p *ConstantPool) AddInt(v int64) int {
	return p.add(Constant{Kind: ConstInt, I: v})
}

// AddLong adds a long constant (loaded with ldc2_w).
func (p *ConstantPool) AddLong(v int64) int {
	return p.add(Constant{Kind: ConstLong, I: v})
}

// AddDouble adds a double constant (loaded with ldc2_w).
func (p *ConstantPool) AddDouble(v float64) int {
	return p.add(Constant{Kind: ConstDouble, F: v})
}

// AddString adds a string constant.
func (p *ConstantPool) AddString(s string) int {
	return p.add(Constant{Kind: ConstString, S: s})
}

// AddFieldRef adds a resolved field reference.
func (p *ConstantPool) AddFieldRef(r FieldRef) int {
	return p.add(Constant{Kind: ConstFieldRef, Field: r})
}

// AddMethodRef adds a method reference.
func (p *ConstantPool) AddMethodRef(r MethodRef) int {
	return p.add(Constant{Kind: ConstMethodRef, Method: r})
}

// Len returns the number of entries including the reserved zero entry.
func (p *ConstantPool) Len() int { return len(p.entries) }

// At returns entry i.
func (p *ConstantPool) At(i int) (Constant, error) {
	if i <= 0 || i >= len(p.entries) {
		return Constant{}, fmt.Errorf("constant pool index %d out of range [1,%d)", i, len(p.entries))
	}
	return p.entries[i], nil
}

// CallEffect implements bytecode.SignatureResolver over the pool.
func (p *ConstantPool) CallEffect(cpIndex int) (int, bool, error) {
	c, err := p.At(cpIndex)
	if err != nil {
		return 0, false, err
	}
	if c.Kind != ConstMethodRef {
		return 0, false, fmt.Errorf("constant %d is %s, not a method ref", cpIndex, c.Kind)
	}
	return c.Method.Argc, c.Method.ReturnsValue, nil
}

var _ bytecode.SignatureResolver = (*ConstantPool)(nil)

// Method is a verified, resolution-complete Java method ready for either
// interpretation or deployment to the DataFlow Fabric.
type Method struct {
	Class string
	Name  string

	// Argc is the number of declared arguments (excluding the receiver).
	Argc int
	// Instance methods receive their heap reference in local register 0.
	Instance bool
	// ReturnsValue reports whether the method pushes a result for its
	// caller.
	ReturnsValue bool

	// MaxLocals and MaxStack are fixed at compile time — a property of the
	// JVM the JavaFlow machine relies on to size fabric state (Section 3.6
	// item 2).
	MaxLocals int
	MaxStack  int

	Code []bytecode.Instruction
	Pool *ConstantPool

	// sig and hash memoise Signature and Hash on first use. A method is
	// immutable once constructed (the literal, Verify's MaxStack stamp and
	// Class.Add's naming — the latter two drop the memo), so both are
	// constants of the object and racing first uses store equal values.
	sig  atomic.Pointer[string]
	hash atomic.Uint64 // 0 = not computed yet
}

// ParamRegisters is the number of local registers consumed by parameters
// (receiver plus declared arguments; every value is one register in the
// single-slot model).
func (m *Method) ParamRegisters() int {
	n := m.Argc
	if m.Instance {
		n++
	}
	return n
}

// Ref returns the method's own reference record.
func (m *Method) Ref() MethodRef {
	return MethodRef{
		Class: m.Class, Name: m.Name, Argc: m.Argc,
		Instance: m.Instance, ReturnsValue: m.ReturnsValue,
	}
}

// Signature renders "Class.Name/argc".
func (m *Method) Signature() string {
	if s := m.sig.Load(); s != nil {
		return *s
	}
	s := m.Ref().Signature()
	m.sig.Store(&s)
	return s
}

// Hash fingerprints everything about a method that deployment and
// execution observe: identity, register/stack shape, and the full
// instruction stream (opcode, operands, branch and switch targets, stack
// effects). FNV-1a over a fixed little-endian field walk; persistent
// stores key records by it, so the walk is frozen.
func (m *Method) Hash() uint64 {
	if h := m.hash.Load(); h != 0 {
		return h
	}
	h := fnv.New64a()
	var scratch [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		h.Write(scratch[:])
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte(m.Class))
	h.Write([]byte{0})
	h.Write([]byte(m.Name))
	h.Write([]byte{0})
	writeInt(int64(m.Argc))
	writeBool(m.Instance)
	writeBool(m.ReturnsValue)
	writeInt(int64(m.MaxLocals))
	writeInt(int64(m.MaxStack))
	writeInt(int64(len(m.Code)))
	for _, in := range m.Code {
		writeInt(int64(in.Op))
		writeInt(in.A)
		writeInt(in.B)
		writeInt(int64(in.Target))
		keys, targets := in.SwitchKeys(), in.SwitchTargets()
		writeInt(int64(len(keys)))
		for _, k := range keys {
			writeInt(k)
		}
		writeInt(int64(len(targets)))
		for _, t := range targets {
			writeInt(int64(t))
		}
		writeInt(int64(in.Pop))
		writeInt(int64(in.Push))
	}
	sum := h.Sum64()
	m.hash.Store(sum)
	return sum
}

// Class groups methods and static field slots, standing in for the loaded
// ClassFile plus its Method Area allocation.
type Class struct {
	Name        string
	Methods     map[string]*Method
	StaticSlots int
	// InstanceSlots sizes objects instantiated from this class.
	InstanceSlots int
	// order remembers Add insertion order so MethodNames is deterministic
	// without re-sorting on every traversal.
	order []string
}

// NewClass returns an empty class.
func NewClass(name string) *Class {
	return &Class{Name: name, Methods: make(map[string]*Method)}
}

// Add registers a method with the class, setting its Class name.
func (c *Class) Add(m *Method) *Class {
	m.Class = c.Name
	m.sig.Store(nil)
	m.hash.Store(0)
	if _, exists := c.Methods[m.Name]; !exists {
		c.order = append(c.order, m.Name)
	}
	c.Methods[m.Name] = m
	return c
}

// MethodNames returns the method names in insertion order. Builders that add
// methods in a canonical order (the generated corpus adds m0000, m0001, ...)
// get deterministic traversal without re-sorting the map on every call.
func (c *Class) MethodNames() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Method looks up a method by bare name.
func (c *Class) Method(name string) (*Method, error) {
	m, ok := c.Methods[name]
	if !ok {
		return nil, fmt.Errorf("class %s has no method %s", c.Name, name)
	}
	return m, nil
}
