package jvm

import (
	"fmt"
	"math"

	"javaflow/internal/classfile"
)

// Machine is the interpreting JVM: loaded classes, static field areas, the
// heap, and the dynamic-mix profiler. It is the baseline substrate whose
// instrumentation drives the Chapter 5 analysis.
type Machine struct {
	Classes map[string]*classfile.Class
	Statics map[string][]Value
	Heap    *Heap
	Profile *Profile

	// QuickRewrite enables rewriting base storage opcodes to their _Quick
	// forms on first execution, as classic interpreters do (Section 3.6).
	QuickRewrite bool

	// MaxSteps bounds total executed instructions per Invoke (0 = default).
	MaxSteps uint64
	// MaxDepth bounds the call stack (0 = default).
	MaxDepth int

	strings map[string]Value
	natives map[string]NativeFunc
}

// NativeFunc implements a method outside the bytecode world — the
// interpreter's equivalent of the fabric delegating a Service instruction to
// the General Purpose Processor (Section 6.3, Service Operations).
type NativeFunc func(vm *Machine, args []Value) (Value, error)

// DefaultMaxSteps bounds a single Invoke unless overridden.
const DefaultMaxSteps = 1 << 32

// DefaultMaxDepth bounds call nesting unless overridden.
const DefaultMaxDepth = 512

// NewMachine returns an empty machine with profiling enabled.
func NewMachine() *Machine {
	vm := &Machine{
		Classes:      make(map[string]*classfile.Class),
		Statics:      make(map[string][]Value),
		Heap:         NewHeap(),
		Profile:      NewProfile(),
		QuickRewrite: true,
		strings:      make(map[string]Value),
		natives:      make(map[string]NativeFunc),
	}
	registerMathNatives(vm)
	return vm
}

// RegisterNative binds a GPP-serviced method under "Class.Name".
func (vm *Machine) RegisterNative(class, name string, fn NativeFunc) {
	vm.natives[class+"."+name] = fn
}

// Native looks up a registered native method.
func (vm *Machine) Native(class, name string) (NativeFunc, bool) {
	fn, ok := vm.natives[class+"."+name]
	return fn, ok
}

// registerMathNatives provides the small java/lang/Math subset the SPEC
// analog workloads call.
func registerMathNatives(vm *Machine) {
	unary := func(f func(float64) float64) NativeFunc {
		return func(_ *Machine, args []Value) (Value, error) {
			if len(args) != 1 {
				return Value{}, fmt.Errorf("math native wants 1 arg, got %d", len(args))
			}
			return Double(f(args[0].F)), nil
		}
	}
	vm.RegisterNative("java/lang/Math", "cos", unary(mathCos))
	vm.RegisterNative("java/lang/Math", "sin", unary(mathSin))
	vm.RegisterNative("java/lang/Math", "sqrt", unary(mathSqrt))
	vm.RegisterNative("java/lang/Math", "abs", unary(mathAbs))
}

// Register loads a class: verifies every method and allocates its static
// area (the Preparation and Verification steps of Section 6.2).
func (vm *Machine) Register(c *classfile.Class) error {
	for _, m := range c.Methods {
		if err := classfile.Verify(m); err != nil {
			return fmt.Errorf("register %s: %w", c.Name, err)
		}
	}
	vm.Classes[c.Name] = c
	vm.Statics[c.Name] = make([]Value, c.StaticSlots)
	return nil
}

// LookupMethod resolves a method reference against the loaded classes.
func (vm *Machine) LookupMethod(ref classfile.MethodRef) (*classfile.Method, error) {
	c, ok := vm.Classes[ref.Class]
	if !ok {
		return nil, fmt.Errorf("jvm: class %s not loaded", ref.Class)
	}
	return c.Method(ref.Name)
}

// Static reads a static field slot.
func (vm *Machine) Static(class string, slot int) (Value, error) {
	area, ok := vm.Statics[class]
	if !ok {
		return Value{}, fmt.Errorf("jvm: class %s not loaded", class)
	}
	if slot < 0 || slot >= len(area) {
		return Value{}, fmt.Errorf("jvm: static slot %d out of range for %s", slot, class)
	}
	return area[slot], nil
}

// SetStatic writes a static field slot.
func (vm *Machine) SetStatic(class string, slot int, v Value) error {
	area, ok := vm.Statics[class]
	if !ok {
		return fmt.Errorf("jvm: class %s not loaded", class)
	}
	if slot < 0 || slot >= len(area) {
		return fmt.Errorf("jvm: static slot %d out of range for %s", slot, class)
	}
	area[slot] = v
	return nil
}

// internString returns a canonical heap reference for a string constant.
func (vm *Machine) internString(s string) Value {
	if ref, ok := vm.strings[s]; ok {
		return ref
	}
	ref := vm.Heap.AllocObject("java/lang/String", 1)
	obj, _ := vm.Heap.Get(ref)
	obj.Fields[0] = Int(int64(len(s)))
	vm.strings[s] = ref
	return ref
}

// NewIntArray is a convenience allocator used by workload drivers.
func (vm *Machine) NewIntArray(data []int64) Value {
	ref, _ := vm.Heap.AllocArray(len(data), Int(0))
	obj, _ := vm.Heap.Get(ref)
	for i, v := range data {
		obj.Array[i] = Int(v)
	}
	return ref
}

// NewDoubleArray is a convenience allocator used by workload drivers.
func (vm *Machine) NewDoubleArray(data []float64) Value {
	ref, _ := vm.Heap.AllocArray(len(data), Double(0))
	obj, _ := vm.Heap.Get(ref)
	for i, v := range data {
		obj.Array[i] = Double(v)
	}
	return ref
}

// NewMatrix allocates a rows×cols array of double arrays.
func (vm *Machine) NewMatrix(rows, cols int) Value {
	outer, _ := vm.Heap.AllocArray(rows, Null)
	obj, _ := vm.Heap.Get(outer)
	for i := 0; i < rows; i++ {
		inner, _ := vm.Heap.AllocArray(cols, Double(0))
		obj.Array[i] = inner
	}
	return outer
}

// DoubleArrayData copies out the contents of a double array for assertions.
func (vm *Machine) DoubleArrayData(ref Value) ([]float64, error) {
	obj, err := vm.Heap.Get(ref)
	if err != nil {
		return nil, err
	}
	if !obj.IsArray {
		return nil, fmt.Errorf("jvm: not an array")
	}
	out := make([]float64, len(obj.Array))
	for i, v := range obj.Array {
		out[i] = v.F
	}
	return out, nil
}

// IntArrayData copies out the contents of an int/long array for assertions.
func (vm *Machine) IntArrayData(ref Value) ([]int64, error) {
	obj, err := vm.Heap.Get(ref)
	if err != nil {
		return nil, err
	}
	if !obj.IsArray {
		return nil, fmt.Errorf("jvm: not an array")
	}
	out := make([]int64, len(obj.Array))
	for i, v := range obj.Array {
		out[i] = v.I
	}
	return out, nil
}

// Math natives are thin aliases so the import stays local to this file's
// package block.
func mathCos(x float64) float64  { return math.Cos(x) }
func mathSin(x float64) float64  { return math.Sin(x) }
func mathSqrt(x float64) float64 { return math.Sqrt(x) }
func mathAbs(x float64) float64  { return math.Abs(x) }

// AllocInstance allocates an object of a registered class, sized by its
// InstanceSlots.
func (vm *Machine) AllocInstance(class string) (Value, error) {
	c, ok := vm.Classes[class]
	if !ok {
		return Null, fmt.Errorf("jvm: class %s not loaded", class)
	}
	return vm.Heap.AllocObject(class, c.InstanceSlots), nil
}

// SetField writes an instance field slot directly (driver convenience).
func (vm *Machine) SetField(obj Value, slot int, v Value) error {
	o, err := vm.Heap.Get(obj)
	if err != nil {
		return err
	}
	if slot < 0 || slot >= len(o.Fields) {
		return fmt.Errorf("jvm: field slot %d out of range (%d)", slot, len(o.Fields))
	}
	o.Fields[slot] = v
	return nil
}
