// Package jvm implements a baseline Java Virtual Machine bytecode
// interpreter: the instrumented-interpreter substrate the dissertation used
// (a modified JAMVM 1.5.3) to derive the dynamic instruction mixes of
// Chapter 5. It executes the same verified methods that the DataFlow Fabric
// loads, counting every ByteCode executed per method signature, and models
// the _Quick rewrite of storage instructions whose resolution Table 5
// quantifies.
//
// The load-bearing invariant: instrumentation observes, never perturbs —
// counting instructions must not change what the program computes, so
// the profiled interpreter's results stay comparable with every other
// execution substrate in the repository.
package jvm

import "fmt"

// Kind discriminates runtime values. The JavaFlow model carries every value
// as a single stack element; the kind corresponds to the strongly-typed tag
// each network message carries (Figure 15).
type Kind uint8

const (
	KindInt Kind = iota
	KindLong
	KindFloat
	KindDouble
	KindRef
	KindRetAddr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	case KindRef:
		return "ref"
	case KindRetAddr:
		return "retaddr"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single typed JVM value. Integral kinds use I; floating kinds
// use F; references hold a heap handle in I (handle 0 is null).
type Value struct {
	K Kind
	I int64
	F float64
}

// Int constructs an int value.
func Int(v int64) Value { return Value{K: KindInt, I: int64(int32(v))} }

// Long constructs a long value.
func Long(v int64) Value { return Value{K: KindLong, I: v} }

// Float constructs a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Double constructs a double value.
func Double(v float64) Value { return Value{K: KindDouble, F: v} }

// Ref constructs a reference to heap handle h.
func Ref(h int64) Value { return Value{K: KindRef, I: h} }

// Null is the null reference.
var Null = Value{K: KindRef, I: 0}

// IsNull reports whether v is the null reference.
func (v Value) IsNull() bool { return v.K == KindRef && v.I == 0 }

func (v Value) String() string {
	switch v.K {
	case KindFloat, KindDouble:
		return fmt.Sprintf("%s(%g)", v.K, v.F)
	case KindRef:
		if v.I == 0 {
			return "null"
		}
		return fmt.Sprintf("ref(%d)", v.I)
	default:
		return fmt.Sprintf("%s(%d)", v.K, v.I)
	}
}
