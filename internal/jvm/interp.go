package jvm

import (
	"fmt"
	"math"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// frame is one activation record: a method's locals, operand stack, and pc.
type frame struct {
	m      *classfile.Method
	locals []Value
	stack  []Value
	pc     int
}

func (f *frame) push(v Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() (Value, error) {
	if len(f.stack) == 0 {
		return Value{}, fmt.Errorf("jvm: stack underflow in %s at %d", f.m.Signature(), f.pc)
	}
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v, nil
}

func (f *frame) popN(n int) ([]Value, error) {
	if len(f.stack) < n {
		return nil, fmt.Errorf("jvm: stack underflow (%d < %d) in %s at %d", len(f.stack), n, f.m.Signature(), f.pc)
	}
	vs := make([]Value, n)
	copy(vs, f.stack[len(f.stack)-n:])
	f.stack = f.stack[:len(f.stack)-n]
	return vs, nil
}

// Invoke executes method m with the given arguments (receiver first for
// instance methods) and returns the result value, if any.
func (vm *Machine) Invoke(m *classfile.Method, args ...Value) (Value, error) {
	if got, want := len(args), m.ParamRegisters(); got != want {
		return Value{}, fmt.Errorf("jvm: %s wants %d argument registers, got %d", m.Signature(), want, got)
	}
	maxSteps := vm.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	maxDepth := vm.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}

	frames := []*frame{newFrame(m, args)}
	if vm.Profile != nil {
		vm.Profile.recordInvocation(m.Signature())
	}
	var steps uint64

	for {
		f := frames[len(frames)-1]
		if f.pc < 0 || f.pc >= len(f.m.Code) {
			return Value{}, fmt.Errorf("jvm: pc %d out of range in %s", f.pc, f.m.Signature())
		}
		if steps++; steps > maxSteps {
			return Value{}, fmt.Errorf("jvm: step limit %d exceeded in %s", maxSteps, f.m.Signature())
		}

		in := f.m.Code[f.pc]
		op := in.Op

		// _Quick rewriting: the first execution of a base storage opcode
		// performs the constant-pool resolution and patches the site
		// (Section 3.6); subsequent executions run the _Quick form.
		if vm.QuickRewrite {
			if quick, ok := bytecode.QuickForm(op); ok && quick != op {
				if vm.Profile != nil {
					vm.Profile.record(f.m.Signature(), op)
				}
				f.m.Code[f.pc].Op = quick
				// The resolution itself (Constant Pool access) is counted
				// as the base-form execution; re-execute as _Quick next
				// iteration without advancing pc.
				continue
			}
		}
		if vm.Profile != nil {
			vm.Profile.record(f.m.Signature(), op)
		}

		next := f.pc + 1
		ret, retVal, err := vm.step(f, in, &next)
		if err != nil {
			return Value{}, fmt.Errorf("%s at %d (%s): %w", f.m.Signature(), f.pc, op, err)
		}

		switch ret {
		case stepNext:
			f.pc = next
		case stepCall:
			callee := retVal.callee
			if len(frames) >= maxDepth {
				return Value{}, &ThrownError{Exception: "StackOverflowError",
					Detail: fmt.Sprintf("depth %d", len(frames))}
			}
			f.pc = next // resume point after the call returns
			frames = append(frames, newFrame(callee, retVal.args))
			if vm.Profile != nil {
				vm.Profile.recordInvocation(callee.Signature())
			}
		case stepReturn:
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				return retVal.value, nil
			}
			caller := frames[len(frames)-1]
			if retVal.hasValue {
				caller.push(retVal.value)
			}
		}
	}
}

func newFrame(m *classfile.Method, args []Value) *frame {
	f := &frame{
		m:      m,
		locals: make([]Value, m.MaxLocals),
		stack:  make([]Value, 0, m.MaxStack),
	}
	copy(f.locals, args)
	return f
}

type stepKind uint8

const (
	stepNext stepKind = iota
	stepCall
	stepReturn
)

type stepResult struct {
	callee   *classfile.Method
	args     []Value
	value    Value
	hasValue bool
}

// step executes one instruction. next is pre-set to pc+1 and may be
// redirected by control flow.
func (vm *Machine) step(f *frame, in bytecode.Instruction, next *int) (stepKind, stepResult, error) {
	op := in.Op
	switch {
	case op == bytecode.Nop:
		return stepNext, stepResult{}, nil

	// ----- constants and stack moves -----
	case op == bytecode.AconstNull:
		f.push(Null)
		return stepNext, stepResult{}, nil
	case op >= bytecode.IconstM1 && op <= bytecode.Iconst5:
		v, _ := in.IntConst()
		f.push(Int(v))
		return stepNext, stepResult{}, nil
	case op == bytecode.Lconst0 || op == bytecode.Lconst1:
		v, _ := in.IntConst()
		f.push(Long(v))
		return stepNext, stepResult{}, nil
	case op >= bytecode.Fconst0 && op <= bytecode.Fconst2:
		v, _ := in.FloatConst()
		f.push(Float(v))
		return stepNext, stepResult{}, nil
	case op == bytecode.Dconst0 || op == bytecode.Dconst1:
		v, _ := in.FloatConst()
		f.push(Double(v))
		return stepNext, stepResult{}, nil
	case op == bytecode.Bipush || op == bytecode.Sipush:
		f.push(Int(in.A))
		return stepNext, stepResult{}, nil

	case op == bytecode.Pop:
		_, err := f.pop()
		return stepNext, stepResult{}, err
	case op == bytecode.Pop2:
		_, err := f.popN(2)
		return stepNext, stepResult{}, err
	case op == bytecode.Dup:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(v)
		f.push(v)
		return stepNext, stepResult{}, nil
	case op == bytecode.DupX1:
		vs, err := f.popN(2) // vs = [v2 v1]
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[1])
		f.push(vs[0])
		f.push(vs[1])
		return stepNext, stepResult{}, nil
	case op == bytecode.DupX2:
		vs, err := f.popN(3) // [v3 v2 v1]
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[2])
		f.push(vs[0])
		f.push(vs[1])
		f.push(vs[2])
		return stepNext, stepResult{}, nil
	case op == bytecode.Dup2:
		vs, err := f.popN(2)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[0])
		f.push(vs[1])
		f.push(vs[0])
		f.push(vs[1])
		return stepNext, stepResult{}, nil
	case op == bytecode.Dup2X1:
		vs, err := f.popN(3) // [v3 v2 v1]
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[1])
		f.push(vs[2])
		f.push(vs[0])
		f.push(vs[1])
		f.push(vs[2])
		return stepNext, stepResult{}, nil
	case op == bytecode.Dup2X2:
		vs, err := f.popN(4) // [v4 v3 v2 v1]
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[2])
		f.push(vs[3])
		f.push(vs[0])
		f.push(vs[1])
		f.push(vs[2])
		f.push(vs[3])
		return stepNext, stepResult{}, nil
	case op == bytecode.Swap:
		vs, err := f.popN(2)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(vs[1])
		f.push(vs[0])
		return stepNext, stepResult{}, nil

	// ----- local registers -----
	case in.Group() == bytecode.GroupLocalRead:
		reg, _ := in.LocalIndex()
		f.push(f.locals[reg])
		return stepNext, stepResult{}, nil
	case in.Group() == bytecode.GroupLocalWrite:
		reg, _ := in.LocalIndex()
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.locals[reg] = v
		return stepNext, stepResult{}, nil
	case op == bytecode.Iinc:
		reg := int(in.A)
		f.locals[reg] = Int(f.locals[reg].I + in.B)
		return stepNext, stepResult{}, nil

	// ----- arithmetic -----
	case op >= bytecode.Iadd && op <= bytecode.Lxor:
		return stepNext, stepResult{}, vm.arith(f, op)
	case op >= bytecode.I2l && op <= bytecode.I2s:
		return stepNext, stepResult{}, vm.convert(f, op)
	case op >= bytecode.Lcmp && op <= bytecode.Dcmpg:
		return stepNext, stepResult{}, vm.compare(f, op)

	// ----- control flow -----
	case op == bytecode.Goto || op == bytecode.GotoW:
		*next = in.Target
		return stepNext, stepResult{}, nil
	case op >= bytecode.Ifeq && op <= bytecode.Ifle:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if intCondition(op, v.I) {
			*next = in.Target
		}
		return stepNext, stepResult{}, nil
	case op >= bytecode.IfIcmpeq && op <= bytecode.IfIcmple:
		vs, err := f.popN(2)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if intCondition(op-(bytecode.IfIcmpeq-bytecode.Ifeq), vs[0].I-vs[1].I) {
			*next = in.Target
		}
		return stepNext, stepResult{}, nil
	case op == bytecode.IfAcmpeq || op == bytecode.IfAcmpne:
		vs, err := f.popN(2)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		eq := vs[0].I == vs[1].I
		if (op == bytecode.IfAcmpeq) == eq {
			*next = in.Target
		}
		return stepNext, stepResult{}, nil
	case op == bytecode.Ifnull || op == bytecode.Ifnonnull:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if (op == bytecode.Ifnull) == v.IsNull() {
			*next = in.Target
		}
		return stepNext, stepResult{}, nil
	case op == bytecode.Lookupswitch:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		*next = in.Target
		for i, k := range in.SwitchKeys() {
			if k == v.I {
				*next = in.SwitchTargets()[i]
				break
			}
		}
		return stepNext, stepResult{}, nil
	case op == bytecode.Jsr || op == bytecode.JsrW:
		f.push(Value{K: KindRetAddr, I: int64(f.pc + 1)})
		*next = in.Target
		return stepNext, stepResult{}, nil
	case op == bytecode.Ret:
		ra := f.locals[int(in.A)]
		if ra.K != KindRetAddr {
			return stepNext, stepResult{}, fmt.Errorf("ret on non-return-address %s", ra)
		}
		*next = int(ra.I)
		return stepNext, stepResult{}, nil

	// ----- returns -----
	case op == bytecode.Return:
		return stepReturn, stepResult{}, nil
	case op == bytecode.Ireturn || op == bytecode.Lreturn || op == bytecode.Freturn ||
		op == bytecode.Dreturn || op == bytecode.Areturn:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		return stepReturn, stepResult{value: v, hasValue: true}, nil
	case op == bytecode.Athrow:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		exc := "java/lang/Throwable"
		if obj, derefErr := vm.Heap.Get(v); derefErr == nil {
			exc = obj.Class
		}
		return stepNext, stepResult{}, &ThrownError{Exception: exc}

	// ----- constant pool loads -----
	case op == bytecode.Ldc || op == bytecode.LdcW || op == bytecode.Ldc2W:
		c, err := f.m.Pool.At(int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		switch c.Kind {
		case classfile.ConstInt:
			f.push(Int(c.I))
		case classfile.ConstLong:
			f.push(Long(c.I))
		case classfile.ConstFloat:
			f.push(Float(c.F))
		case classfile.ConstDouble:
			f.push(Double(c.F))
		case classfile.ConstString:
			f.push(vm.internString(c.S))
		default:
			return stepNext, stepResult{}, fmt.Errorf("ldc of %s constant", c.Kind)
		}
		return stepNext, stepResult{}, nil

	// ----- arrays -----
	case op >= bytecode.Iaload && op <= bytecode.Saload:
		vs, err := f.popN(2)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		v, err := vm.Heap.ArrayLoad(vs[0], vs[1])
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(v)
		return stepNext, stepResult{}, nil
	case op >= bytecode.Iastore && op <= bytecode.Sastore:
		vs, err := f.popN(3)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		return stepNext, stepResult{}, vm.Heap.ArrayStore(vs[0], vs[1], vs[2])
	case op == bytecode.Arraylength:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		obj, err := vm.Heap.Get(v)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if !obj.IsArray {
			return stepNext, stepResult{}, fmt.Errorf("arraylength of non-array")
		}
		f.push(Int(int64(len(obj.Array))))
		return stepNext, stepResult{}, nil
	case op == bytecode.Newarray:
		n, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		zero := arrayZero(int(in.A))
		ref, err := vm.Heap.AllocArray(int(n.I), zero)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(ref)
		return stepNext, stepResult{}, nil
	case op == bytecode.Anewarray:
		n, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		ref, err := vm.Heap.AllocArray(int(n.I), Null)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(ref)
		return stepNext, stepResult{}, nil
	case op == bytecode.Multianewarray:
		dims := int(in.B)
		vs, err := f.popN(dims)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		ref, err := vm.allocMulti(vs)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(ref)
		return stepNext, stepResult{}, nil

	// ----- fields -----
	case op == bytecode.GetstaticQuick || op == bytecode.Getstatic:
		fr, err := vm.fieldRef(f, int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		v, err := vm.Static(fr.Class, fr.Slot)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		f.push(v)
		return stepNext, stepResult{}, nil
	case op == bytecode.PutstaticQuick || op == bytecode.Putstatic:
		fr, err := vm.fieldRef(f, int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		return stepNext, stepResult{}, vm.SetStatic(fr.Class, fr.Slot, v)
	case op == bytecode.GetfieldQuick || op == bytecode.Getfield:
		fr, err := vm.fieldRef(f, int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		ref, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		obj, err := vm.Heap.Get(ref)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if fr.Slot < 0 || fr.Slot >= len(obj.Fields) {
			return stepNext, stepResult{}, fmt.Errorf("field slot %d out of range (%d)", fr.Slot, len(obj.Fields))
		}
		f.push(obj.Fields[fr.Slot])
		return stepNext, stepResult{}, nil
	case op == bytecode.PutfieldQuick || op == bytecode.Putfield:
		fr, err := vm.fieldRef(f, int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		vs, err := f.popN(2) // [objectref value]
		if err != nil {
			return stepNext, stepResult{}, err
		}
		obj, err := vm.Heap.Get(vs[0])
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if fr.Slot < 0 || fr.Slot >= len(obj.Fields) {
			return stepNext, stepResult{}, fmt.Errorf("field slot %d out of range (%d)", fr.Slot, len(obj.Fields))
		}
		obj.Fields[fr.Slot] = vs[1]
		return stepNext, stepResult{}, nil

	// ----- calls -----
	case in.IsCall():
		c, err := f.m.Pool.At(int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if c.Kind != classfile.ConstMethodRef {
			return stepNext, stepResult{}, fmt.Errorf("invoke of %s constant", c.Kind)
		}
		// GPP-serviced (native) methods short-circuit the frame machinery,
		// as Service instructions do in the fabric.
		if fn, ok := vm.Native(c.Method.Class, c.Method.Name); ok {
			args, err := f.popN(in.Pop)
			if err != nil {
				return stepNext, stepResult{}, err
			}
			res, err := fn(vm, args)
			if err != nil {
				return stepNext, stepResult{}, err
			}
			if c.Method.ReturnsValue {
				f.push(res)
			}
			return stepNext, stepResult{}, nil
		}
		callee, err := vm.LookupMethod(c.Method)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		args, err := f.popN(in.Pop)
		if err != nil {
			return stepNext, stepResult{}, err
		}
		full := make([]Value, callee.MaxLocals)
		copy(full, args)
		return stepCall, stepResult{callee: callee, args: full[:callee.ParamRegisters()]}, nil

	// ----- specials -----
	case op == bytecode.New:
		c, err := f.m.Pool.At(int(in.A))
		if err != nil {
			return stepNext, stepResult{}, err
		}
		name := c.S
		slots := 0
		if cls, ok := vm.Classes[name]; ok {
			slots = cls.InstanceSlots
		}
		f.push(vm.Heap.AllocObject(name, slots))
		return stepNext, stepResult{}, nil
	case op == bytecode.Checkcast:
		return stepNext, stepResult{}, nil // type system is trusted in the corpus
	case op == bytecode.Instanceof:
		v, err := f.pop()
		if err != nil {
			return stepNext, stepResult{}, err
		}
		if v.IsNull() {
			f.push(Int(0))
		} else {
			f.push(Int(1))
		}
		return stepNext, stepResult{}, nil
	case op == bytecode.Monitorenter || op == bytecode.Monitorexit:
		_, err := f.pop()
		return stepNext, stepResult{}, err

	default:
		return stepNext, stepResult{}, fmt.Errorf("unimplemented opcode %s", op)
	}
}

// fieldRef resolves a constant-pool field reference.
func (vm *Machine) fieldRef(f *frame, cpIndex int) (classfile.FieldRef, error) {
	c, err := f.m.Pool.At(cpIndex)
	if err != nil {
		return classfile.FieldRef{}, err
	}
	if c.Kind != classfile.ConstFieldRef {
		return classfile.FieldRef{}, fmt.Errorf("constant %d is %s, not a field ref", cpIndex, c.Kind)
	}
	return c.Field, nil
}

// allocMulti allocates nested reference arrays for multianewarray; leaves
// are reference arrays of nulls (the corpus types them on first store).
func (vm *Machine) allocMulti(dims []Value) (Value, error) {
	n := int(dims[0].I)
	if len(dims) == 1 {
		return vm.Heap.AllocArray(n, Null)
	}
	outer, err := vm.Heap.AllocArray(n, Null)
	if err != nil {
		return Null, err
	}
	obj, err := vm.Heap.Get(outer)
	if err != nil {
		return Null, err
	}
	for i := 0; i < n; i++ {
		inner, err := vm.allocMulti(dims[1:])
		if err != nil {
			return Null, err
		}
		obj.Array[i] = inner
	}
	return outer, nil
}

// arrayZero maps the architected newarray atype codes to element zeros.
func arrayZero(atype int) Value {
	switch atype {
	case 6: // T_FLOAT
		return Float(0)
	case 7: // T_DOUBLE
		return Double(0)
	case 11: // T_LONG
		return Long(0)
	default: // boolean, char, byte, short, int
		return Int(0)
	}
}

// intCondition evaluates an ifXX opcode against v (v is the left-right
// difference for if_icmp forms).
func intCondition(op bytecode.Opcode, v int64) bool {
	switch op {
	case bytecode.Ifeq:
		return v == 0
	case bytecode.Ifne:
		return v != 0
	case bytecode.Iflt:
		return v < 0
	case bytecode.Ifge:
		return v >= 0
	case bytecode.Ifgt:
		return v > 0
	case bytecode.Ifle:
		return v <= 0
	}
	return false
}

// arith implements the integer, long, float and double arithmetic opcodes.
func (vm *Machine) arith(f *frame, op bytecode.Opcode) error {
	info := bytecode.MustLookup(op)
	vs, err := f.popN(info.Pop)
	if err != nil {
		return err
	}
	switch op {
	// unary
	case bytecode.Ineg:
		f.push(Int(-vs[0].I))
	case bytecode.Lneg:
		f.push(Long(-vs[0].I))
	case bytecode.Fneg:
		f.push(Float(-vs[0].F))
	case bytecode.Dneg:
		f.push(Double(-vs[0].F))

	// int binary
	case bytecode.Iadd:
		f.push(Int(vs[0].I + vs[1].I))
	case bytecode.Isub:
		f.push(Int(vs[0].I - vs[1].I))
	case bytecode.Imul:
		f.push(Int(vs[0].I * vs[1].I))
	case bytecode.Idiv:
		if vs[1].I == 0 {
			return &ThrownError{Exception: "ArithmeticException", Detail: "/ by zero"}
		}
		f.push(Int(vs[0].I / vs[1].I))
	case bytecode.Irem:
		if vs[1].I == 0 {
			return &ThrownError{Exception: "ArithmeticException", Detail: "% by zero"}
		}
		f.push(Int(vs[0].I % vs[1].I))
	case bytecode.Ishl:
		f.push(Int(vs[0].I << uint(vs[1].I&31)))
	case bytecode.Ishr:
		f.push(Int(int64(int32(vs[0].I)) >> uint(vs[1].I&31)))
	case bytecode.Iushr:
		f.push(Int(int64(uint32(vs[0].I) >> uint(vs[1].I&31))))
	case bytecode.Iand:
		f.push(Int(vs[0].I & vs[1].I))
	case bytecode.Ior:
		f.push(Int(vs[0].I | vs[1].I))
	case bytecode.Ixor:
		f.push(Int(vs[0].I ^ vs[1].I))

	// long binary
	case bytecode.Ladd:
		f.push(Long(vs[0].I + vs[1].I))
	case bytecode.Lsub:
		f.push(Long(vs[0].I - vs[1].I))
	case bytecode.Lmul:
		f.push(Long(vs[0].I * vs[1].I))
	case bytecode.Ldiv:
		if vs[1].I == 0 {
			return &ThrownError{Exception: "ArithmeticException", Detail: "/ by zero"}
		}
		f.push(Long(vs[0].I / vs[1].I))
	case bytecode.Lrem:
		if vs[1].I == 0 {
			return &ThrownError{Exception: "ArithmeticException", Detail: "% by zero"}
		}
		f.push(Long(vs[0].I % vs[1].I))
	case bytecode.Lshl:
		f.push(Long(vs[0].I << uint(vs[1].I&63)))
	case bytecode.Lshr:
		f.push(Long(vs[0].I >> uint(vs[1].I&63)))
	case bytecode.Lushr:
		f.push(Long(int64(uint64(vs[0].I) >> uint(vs[1].I&63))))
	case bytecode.Land:
		f.push(Long(vs[0].I & vs[1].I))
	case bytecode.Lor:
		f.push(Long(vs[0].I | vs[1].I))
	case bytecode.Lxor:
		f.push(Long(vs[0].I ^ vs[1].I))

	// float/double binary
	case bytecode.Fadd:
		f.push(Float(vs[0].F + vs[1].F))
	case bytecode.Fsub:
		f.push(Float(vs[0].F - vs[1].F))
	case bytecode.Fmul:
		f.push(Float(vs[0].F * vs[1].F))
	case bytecode.Fdiv:
		f.push(Float(vs[0].F / vs[1].F))
	case bytecode.Frem:
		f.push(Float(math.Mod(vs[0].F, vs[1].F)))
	case bytecode.Dadd:
		f.push(Double(vs[0].F + vs[1].F))
	case bytecode.Dsub:
		f.push(Double(vs[0].F - vs[1].F))
	case bytecode.Dmul:
		f.push(Double(vs[0].F * vs[1].F))
	case bytecode.Ddiv:
		f.push(Double(vs[0].F / vs[1].F))
	case bytecode.Drem:
		f.push(Double(math.Mod(vs[0].F, vs[1].F)))

	default:
		return fmt.Errorf("arith: unhandled %s", op)
	}
	return nil
}

// convert implements the conversion opcodes (Table 29).
func (vm *Machine) convert(f *frame, op bytecode.Opcode) error {
	v, err := f.pop()
	if err != nil {
		return err
	}
	switch op {
	case bytecode.I2l:
		f.push(Long(v.I))
	case bytecode.I2f:
		f.push(Float(float64(v.I)))
	case bytecode.I2d:
		f.push(Double(float64(v.I)))
	case bytecode.L2i:
		f.push(Int(v.I))
	case bytecode.L2f:
		f.push(Float(float64(v.I)))
	case bytecode.L2d:
		f.push(Double(float64(v.I)))
	case bytecode.F2i:
		f.push(Int(floatToInt(v.F, math.MinInt32, math.MaxInt32)))
	case bytecode.F2l:
		f.push(Long(floatToInt(v.F, math.MinInt64, math.MaxInt64)))
	case bytecode.F2d:
		f.push(Double(v.F))
	case bytecode.D2i:
		f.push(Int(floatToInt(v.F, math.MinInt32, math.MaxInt32)))
	case bytecode.D2l:
		f.push(Long(floatToInt(v.F, math.MinInt64, math.MaxInt64)))
	case bytecode.D2f:
		f.push(Float(v.F))
	case bytecode.I2b:
		f.push(Int(int64(int8(v.I))))
	case bytecode.I2c:
		f.push(Int(int64(uint16(v.I))))
	case bytecode.I2s:
		f.push(Int(int64(int16(v.I))))
	default:
		return fmt.Errorf("convert: unhandled %s", op)
	}
	return nil
}

// floatToInt applies Java narrowing semantics: NaN to zero, out-of-range
// saturates.
func floatToInt(f float64, min, max int64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f <= float64(min):
		return min
	case f >= float64(max):
		return max
	default:
		return int64(f)
	}
}

// compare implements lcmp and the NaN-biased float/double compares.
func (vm *Machine) compare(f *frame, op bytecode.Opcode) error {
	vs, err := f.popN(2)
	if err != nil {
		return err
	}
	var r int64
	switch op {
	case bytecode.Lcmp:
		switch {
		case vs[0].I < vs[1].I:
			r = -1
		case vs[0].I > vs[1].I:
			r = 1
		}
	case bytecode.Fcmpl, bytecode.Dcmpl:
		switch {
		case math.IsNaN(vs[0].F) || math.IsNaN(vs[1].F):
			r = -1
		case vs[0].F < vs[1].F:
			r = -1
		case vs[0].F > vs[1].F:
			r = 1
		}
	case bytecode.Fcmpg, bytecode.Dcmpg:
		switch {
		case math.IsNaN(vs[0].F) || math.IsNaN(vs[1].F):
			r = 1
		case vs[0].F < vs[1].F:
			r = -1
		case vs[0].F > vs[1].F:
			r = 1
		}
	default:
		return fmt.Errorf("compare: unhandled %s", op)
	}
	f.push(Int(r))
	return nil
}
