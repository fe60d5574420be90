package workload

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"javaflow/internal/bytecode"
)

// TestCorpusFootprint gates what the serving corpus costs a node, which
// builds Corpus(2014, 1580) at start-up and keeps it for its lifetime.
// Method bodies are exact-size slices of 16-byte instructions that hold no
// pointer, so the garbage collector never scans them, and one build
// allocates about 3.28 k times and 2.14 MB: bodies are carved from shared
// chunks, a generated class's methods are one slab, labels are numbers and
// Verify reuses its buffers. History: 10.1 k and 2.78 MB with one
// allocation per body, method, label and Verify call; 6.25 MB with 56-byte
// instructions that held a switch-table pointer; 24.3 k and 21.9 MB when
// bodies were doubling-grown slices of 96-byte instructions. The bounds
// keep a few percent of headroom over the current build.
func TestCorpusFootprint(t *testing.T) {
	if size := unsafe.Sizeof(bytecode.Instruction{}); size > 16 {
		t.Errorf("bytecode.Instruction is %d bytes, want <= 16", size)
	}
	if path := pointerIn(reflect.TypeFor[bytecode.Instruction](), "Instruction"); path != "" {
		t.Errorf("%s holds a pointer: the GC would scan every method body again", path)
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, m := range Corpus(2014, 1580) { // also the warm-up for the counts below
		if cap(m.Code) != len(m.Code) {
			t.Fatalf("%s: code has cap %d for %d instructions, want exact size", m.Signature(), cap(m.Code), len(m.Code))
		}
	}

	const maxAllocs, maxBytes = 3_400, 2_230_000
	allocs := testing.AllocsPerRun(1, func() { Corpus(2014, 1580) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Corpus(2014, 1580)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if allocs > maxAllocs {
		t.Errorf("Corpus(2014, 1580): %.0f allocations, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("Corpus(2014, 1580): %d bytes allocated, want <= %d", bytes, maxBytes)
	}
	t.Logf("Corpus(2014, 1580): %.0f allocations, %d bytes", allocs, bytes)
}

// pointerIn returns the path of the first field of t, named name, that
// holds a pointer (a pointer, slice, map, interface, string, channel or
// func), or "" when t is pointer-free.
func pointerIn(t reflect.Type, name string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if path := pointerIn(f.Type, name+"."+f.Name); path != "" {
				return path
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(t.Elem(), name+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return name + " (" + t.Kind().String() + ")"
	}
}
